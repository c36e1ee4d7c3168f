//! The Eq. 1 performance model.
//!
//! `EST(R̂, M̂(sᵢ, L̂ᵢ))` predicts one job's runtime from the cluster shape
//! (`R̂`: VM count and slots), the job layout (`L̂ᵢ`: sizes and task
//! counts) and profiled per-task bandwidths (`M̂`). Each phase costs
//! `#waves × runtime-per-wave`.

use serde::{Deserialize, Serialize};

use cast_cloud::tier::Tier;
use cast_cloud::units::{Bandwidth, DataSize, Duration};
use cast_cloud::Catalog;
use cast_workload::job::Job;
use cast_workload::profile::AppProfile;

use crate::model::PhaseBw;

/// `R̂`: the compute-side cluster description of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of worker VMs (`nvm`).
    pub nvm: usize,
    /// Map slots per VM (`mc`).
    pub map_slots: usize,
    /// Reduce slots per VM (`rc`).
    pub reduce_slots: usize,
    /// Per-task framework startup overhead, seconds (JVM launch +
    /// scheduling). Mirrors the simulator's `task_startup_secs`.
    pub task_startup_secs: f64,
}

impl ClusterSpec {
    /// The paper's 400-core evaluation cluster (25 × 16 slots).
    pub fn paper() -> ClusterSpec {
        ClusterSpec {
            nvm: 25,
            map_slots: 16,
            reduce_slots: 8,
            task_startup_secs: 1.5,
        }
    }

    /// Number of map waves for `m` map tasks: `⌈m / (nvm·mc)⌉`.
    pub fn map_waves(&self, m: usize) -> usize {
        m.div_ceil(self.nvm * self.map_slots)
    }

    /// Continuous relaxation of the map wave count, floored at one wave.
    ///
    /// Eq. 1 uses `⌈·⌉`; a partially-filled trailing wave both finishes
    /// early and runs its tasks under lighter contention, so the ceiling
    /// over-predicts by up to a full wave. The fractional count removes
    /// that bias (with the ceiling our Fig. 8 error grows from ~7% to
    /// ~14%, concentrated at small capacities).
    pub fn map_waves_frac(&self, m: usize) -> f64 {
        (m as f64 / (self.nvm * self.map_slots) as f64).max(1.0)
    }

    /// Continuous relaxation of the reduce wave count (see
    /// [`ClusterSpec::map_waves_frac`]).
    pub fn reduce_waves_frac(&self, r: usize) -> f64 {
        (r as f64 / (self.nvm * self.reduce_slots) as f64).max(1.0)
    }
}

/// Phase-by-phase estimate for one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseEstimate {
    /// Input download / cross-tier transfer before the job.
    pub stage_in: Duration,
    /// Map phase.
    pub map: Duration,
    /// Shuffle + reduce phase.
    pub shuffle_reduce: Duration,
    /// Output upload after the job.
    pub stage_out: Duration,
}

impl PhaseEstimate {
    /// Total predicted runtime.
    pub fn total(&self) -> Duration {
        self.stage_in + self.map + self.shuffle_reduce + self.stage_out
    }
}

/// Eq. 1 with the shuffle and reduce terms folded (see crate docs): the
/// map phase moves `inputᵢ/m` per task at `bw.map`; the reduce phase moves
/// `(interᵢ+outputᵢ)/r` per task at `bw.shuffle_reduce`. Request overheads
/// for object-store files are added as fixed per-task latency.
pub fn estimate_phases(
    job: &Job,
    profile: &AppProfile,
    bw: PhaseBw,
    cluster: &ClusterSpec,
    catalog: &Catalog,
    input_tier: Tier,
    output_tier: Tier,
) -> PhaseEstimate {
    let m = job.maps.max(1);
    let r = job.reduces.max(1);

    // Wave decomposition: `full` completely-filled waves run at the
    // profiled (contended) bandwidth; a trailing partial wave runs under
    // lighter contention, bounded below by the task's own uncontended
    // processing time. Eq. 1's plain ⌈·⌉ over-charges I/O-bound partial
    // waves; a bare fractional count under-charges CPU-bound ones.
    let map_slots = cluster.nvm * cluster.map_slots;
    let red_slots = cluster.nvm * cluster.reduce_slots;

    let map_split = DataSize::from_bytes(job.input.bytes() / m as f64);
    let map_fixed = cluster.task_startup_secs
        + profile.input_files_per_map as f64 * catalog.service(input_tier).request_overhead.secs();
    let map_wave_time = if bw.map > 0.0 {
        map_split.mb() / bw.map + map_fixed
    } else {
        map_fixed
    };
    let map_solo =
        map_split.mb() / profile.map_rate.min(profile.per_task_io_cap).mb_per_sec() + map_fixed;
    let map_secs = partial_wave_time(m, map_slots, map_wave_time, map_solo);

    let inter = job.inter(profile);
    let output = job.output(profile);
    let red_bytes = DataSize::from_bytes((inter.bytes() + output.bytes()) / r as f64);
    let red_fixed = cluster.task_startup_secs
        + profile.output_files_per_reduce as f64
            * catalog.service(output_tier).request_overhead.secs();
    let red_secs = if red_bytes.mb() > 0.0 {
        let red_wave_time = if bw.shuffle_reduce > 0.0 {
            red_bytes.mb() / bw.shuffle_reduce + red_fixed
        } else {
            red_fixed
        };
        // Uncontended reduce task: fetch its partition at the client cap,
        // then stream it through the reduce function.
        let inter_per_r = job.inter(profile).mb() / r as f64;
        let red_solo = inter_per_r / profile.per_task_io_cap.mb_per_sec()
            + inter_per_r
                / profile
                    .reduce_rate
                    .min(profile.per_task_io_cap)
                    .mb_per_sec()
            + red_fixed;
        partial_wave_time(r, red_slots, red_wave_time, red_solo)
    } else {
        0.0
    };

    PhaseEstimate {
        stage_in: Duration::ZERO,
        map: Duration::from_secs(map_secs),
        shuffle_reduce: Duration::from_secs(red_secs),
        stage_out: Duration::ZERO,
    }
}

/// Phase time for `tasks` tasks over `slots` slots: full waves at the
/// contended per-wave time, plus a trailing partial wave that runs under
/// lighter contention but can never beat the task's uncontended time.
fn partial_wave_time(tasks: usize, slots: usize, wave_time: f64, solo_time: f64) -> f64 {
    let full = tasks / slots;
    let rest = tasks % slots;
    let mut t = full as f64 * wave_time;
    if rest > 0 {
        let frac = rest as f64 / slots as f64;
        t += (frac * wave_time).max(solo_time.min(wave_time));
    }
    t
}

/// Analytic transfer-time estimate for staging `bytes` from `src` to `dst`
/// with one parallel stream per VM: bounded by the slower endpoint's per-VM
/// bandwidth and the NIC, plus per-object request setup.
#[allow(clippy::too_many_arguments)]
pub fn estimate_transfer(
    bytes: DataSize,
    src: Tier,
    dst: Tier,
    src_bw: Bandwidth,
    dst_bw: Bandwidth,
    nic: Bandwidth,
    cluster: &ClusterSpec,
    catalog: &Catalog,
) -> Duration {
    if bytes.mb() <= 0.0 {
        return Duration::ZERO;
    }
    let per_vm = bytes.mb() / cluster.nvm as f64;
    let mut bw = src_bw.min(dst_bw);
    if src != Tier::EphSsd || dst != Tier::EphSsd {
        bw = bw.min(nic);
    }
    if bw.mb_per_sec() <= 0.0 {
        return Duration::INFINITY;
    }
    // Staging runs a distcp-style parallel copy: per-object request
    // overheads amortise across the copy streams of each VM.
    const TRANSFER_STREAMS_PER_VM: f64 = 4.0;
    let files = (per_vm / 256.0).ceil().max(1.0);
    let fixed = files / TRANSFER_STREAMS_PER_VM
        * (catalog.service(src).request_overhead.secs()
            + catalog.service(dst).request_overhead.secs());
    Duration::from_secs(per_vm / bw.mb_per_sec() + fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cast_workload::apps::AppKind;
    use cast_workload::dataset::DatasetId;
    use cast_workload::job::JobId;
    use cast_workload::profile::ProfileSet;

    fn sort_job(gb: f64) -> Job {
        Job::with_default_layout(JobId(0), AppKind::Sort, DatasetId(0), DataSize::from_gb(gb))
    }

    #[test]
    fn wave_math_matches_eq1() {
        let c = ClusterSpec::paper();
        assert_eq!(c.map_waves(400), 1);
        assert_eq!(c.map_waves(401), 2);
        assert_eq!(c.map_waves(1), 1);
    }

    #[test]
    fn estimate_scales_with_waves() {
        let profiles = ProfileSet::defaults();
        let p = profiles.get(AppKind::Sort);
        let catalog = Catalog::google_cloud();
        let cluster = ClusterSpec::paper();
        let bw = PhaseBw {
            map: 50.0,
            shuffle_reduce: 40.0,
        };
        // 102.4 GB = 400 maps = exactly one wave on the paper cluster.
        let one_wave = sort_job(102.4);
        // 204.8 GB = 800 maps = two waves of the same per-task size.
        let two_waves = sort_job(204.8);
        let e1 = estimate_phases(
            &one_wave,
            p,
            bw,
            &cluster,
            &catalog,
            Tier::PersSsd,
            Tier::PersSsd,
        );
        let e2 = estimate_phases(
            &two_waves,
            p,
            bw,
            &cluster,
            &catalog,
            Tier::PersSsd,
            Tier::PersSsd,
        );
        assert!(
            (e2.map.secs() / e1.map.secs() - 2.0).abs() < 1e-9,
            "two waves = 2x map time"
        );
    }

    #[test]
    fn higher_bandwidth_means_faster() {
        let profiles = ProfileSet::defaults();
        let p = profiles.get(AppKind::Sort);
        let catalog = Catalog::google_cloud();
        let cluster = ClusterSpec::paper();
        // Large enough for several full waves, so the contended bandwidth
        // dominates and the uncontended-task floor does not mask the gap.
        let job = sort_job(500.0);
        let slow = estimate_phases(
            &job,
            p,
            PhaseBw {
                map: 10.0,
                shuffle_reduce: 10.0,
            },
            &cluster,
            &catalog,
            Tier::PersHdd,
            Tier::PersHdd,
        );
        let fast = estimate_phases(
            &job,
            p,
            PhaseBw {
                map: 100.0,
                shuffle_reduce: 100.0,
            },
            &cluster,
            &catalog,
            Tier::EphSsd,
            Tier::EphSsd,
        );
        assert!(slow.total().secs() > 5.0 * fast.total().secs());
    }

    #[test]
    fn objstore_output_pays_request_overheads() {
        let profiles = ProfileSet::defaults();
        let p = profiles.get(AppKind::Join);
        let catalog = Catalog::google_cloud();
        let cluster = ClusterSpec::paper();
        let job = Job::with_default_layout(
            JobId(0),
            AppKind::Join,
            DatasetId(0),
            DataSize::from_gb(100.0),
        );
        let bw = PhaseBw {
            map: 50.0,
            shuffle_reduce: 20.0,
        };
        let on_ssd = estimate_phases(
            &job,
            p,
            bw,
            &cluster,
            &catalog,
            Tier::PersSsd,
            Tier::PersSsd,
        );
        let on_obj = estimate_phases(
            &job,
            p,
            bw,
            &cluster,
            &catalog,
            Tier::ObjStore,
            Tier::ObjStore,
        );
        assert!(
            on_obj.shuffle_reduce.secs() > on_ssd.shuffle_reduce.secs() + 1.0,
            "many small files on objStore must cost setup time"
        );
    }

    #[test]
    fn transfer_estimate_bounded_by_slowest_link() {
        let catalog = Catalog::google_cloud();
        let cluster = ClusterSpec {
            nvm: 10,
            map_slots: 16,
            reduce_slots: 8,
            task_startup_secs: 1.5,
        };
        let t = estimate_transfer(
            DataSize::from_gb(100.0),
            Tier::ObjStore,
            Tier::EphSsd,
            Bandwidth::from_mbps(265.0),
            Bandwidth::from_mbps(733.0),
            Bandwidth::from_gbps(2.0),
            &cluster,
            &catalog,
        );
        // 10 GB per VM at 265 MB/s ≈ 37.7 s + request setup.
        assert!(t.secs() > 37.0 && t.secs() < 60.0, "got {t}");
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        let catalog = Catalog::google_cloud();
        let cluster = ClusterSpec::paper();
        let t = estimate_transfer(
            DataSize::ZERO,
            Tier::ObjStore,
            Tier::EphSsd,
            Bandwidth::from_mbps(265.0),
            Bandwidth::from_mbps(733.0),
            Bandwidth::from_gbps(2.0),
            &cluster,
            &catalog,
        );
        assert_eq!(t, Duration::ZERO);
    }
}
