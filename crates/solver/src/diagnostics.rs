//! Solver run diagnostics.

use serde::{Deserialize, Serialize};

/// Statistics from one annealing run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SolveDiagnostics {
    /// Iterations performed.
    pub iterations: usize,
    /// Neighbour moves accepted (better or Metropolis).
    pub accepted: usize,
    /// Moves accepted despite being worse (uphill moves).
    pub uphill_accepted: usize,
    /// Number of times the incumbent best improved.
    pub improvements: usize,
    /// Utility (or score) of the initial plan.
    pub initial_score: f64,
    /// Utility (or score) of the best plan found.
    pub best_score: f64,
    /// Best-score trace sampled every `trace_stride` iterations.
    pub trace: Vec<f64>,
    /// Stride of the trace samples.
    pub trace_stride: usize,
    /// Independent restart chains in the solve this run belonged to
    /// (1 for a classic single-chain anneal; 0 only in `Default`).
    pub restarts: usize,
}

impl SolveDiagnostics {
    /// Number of annealing moves after which the best-so-far score first
    /// reached `target` (resolution: one trace stride). `None` when the
    /// run never got there. Used to compare warm-started against
    /// cold-started replans: the warm chain starts at the incumbent, so
    /// its `moves_to_reach(incumbent)` is 0 by construction, while a cold
    /// chain has to climb back first.
    pub fn moves_to_reach(&self, target: f64) -> Option<usize> {
        self.trace
            .iter()
            .position(|&s| s >= target)
            .map(|i| i * self.trace_stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_to_reach_scans_the_trace() {
        let d = SolveDiagnostics {
            trace: vec![1.0, 1.0, 1.2, 1.5],
            trace_stride: 50,
            ..SolveDiagnostics::default()
        };
        assert_eq!(d.moves_to_reach(1.0), Some(0));
        assert_eq!(d.moves_to_reach(1.1), Some(100));
        assert_eq!(d.moves_to_reach(1.5), Some(150));
        assert_eq!(d.moves_to_reach(2.0), None);
    }
}
