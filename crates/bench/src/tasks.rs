//! Task-runtime load-balance measurement — the `BENCH_tasks.json`
//! trajectory.
//!
//! The claim behind [`scc_core::spec::Runtime::Tasks`] is Figure 15's
//! complaint inverted: the static placement leaves cheap-stage cores idle
//! at the bottleneck's rate, and work stealing should flatten that. This
//! sweep runs every renderer mode twice in virtual time — static pipeline
//! vs task runtime, same seed, same frames — and records the per-core
//! *idle-fraction* quartiles across the filter cores
//! (`idle = total − busy`, normalised by the run's makespan). The gate is
//! twofold: the task run's quartile spread (Q3 − Q1) must come in
//! strictly below the static run's, and the delivered film must hash
//! bit-identical — load balance is worthless if it moves a pixel.
//! The exactly-once ledger (spawned/completed/steals/re-queues) rides
//! along so the trajectory also tracks how much stealing the balance
//! cost.

use scc_core::spec::{RendererMode, Runtime, StageKind};
use scc_core::viz::frame_checksum;
use scc_core::{RunConfig, WalkthroughReport};
use scc_render::Scene;
use scc_telemetry::Json;
use std::sync::Arc;

/// Quartiles of the per-filter-core idle fraction of one run.
#[derive(Debug, Clone, Copy)]
pub struct IdleSpread {
    pub q1: f64,
    pub q2: f64,
    pub q3: f64,
}

impl IdleSpread {
    /// Interquartile spread — the quantity the gate compares.
    pub fn spread(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Linear-interpolation quartiles over the filter cores' idle
    /// fractions: `idle_i = 1 − busy_i / makespan`.
    pub fn of(report: &WalkthroughReport) -> IdleSpread {
        let mut fractions: Vec<f64> = report
            .stage_reports
            .iter()
            .filter(|s| StageKind::PIPELINE_FILTERS.contains(&s.kind))
            .map(|s| 1.0 - s.busy_secs / report.total_secs)
            .collect();
        assert!(!fractions.is_empty(), "no filter stages in the report");
        fractions.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));
        let at = |q: f64| -> f64 {
            let pos = q * (fractions.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            fractions[lo] * (1.0 - frac) + fractions[hi] * frac
        };
        IdleSpread {
            q1: at(0.25),
            q2: at(0.5),
            q3: at(0.75),
        }
    }
}

/// One renderer mode, measured static-vs-tasks.
#[derive(Debug, Clone)]
pub struct TasksPoint {
    pub mode: RendererMode,
    pub static_secs: f64,
    pub tasks_secs: f64,
    pub static_idle: IdleSpread,
    pub tasks_idle: IdleSpread,
    /// True when the task run's film hashed identical to the static
    /// run's, frame for frame.
    pub bit_identical: bool,
    /// The task run's exactly-once ledger.
    pub stats: scc_core::TaskStats,
}

impl TasksPoint {
    /// Percent reduction of the idle-quartile spread under Tasks.
    pub fn spread_reduction_pct(&self) -> f64 {
        (1.0 - self.tasks_idle.spread() / self.static_idle.spread()) * 100.0
    }
}

/// The full sweep, ready to render as `BENCH_tasks.json`.
#[derive(Debug, Clone)]
pub struct TasksReport {
    pub config: RunConfig,
    pub points: Vec<TasksPoint>,
}

impl TasksReport {
    /// True when every mode delivered the static film bit-for-bit.
    pub fn output_consistent(&self) -> bool {
        self.points.iter().all(|p| p.bit_identical)
    }

    /// True when every mode's spread came in strictly below static's.
    pub fn spread_reduced(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.tasks_idle.spread() < p.static_idle.spread())
    }

    /// True when no mode lost a task (`completed + degraded == spawned`).
    pub fn no_lost_tasks(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.stats.completed + p.stats.degraded == p.stats.spawned)
    }
}

/// Run the sweep: each renderer mode once under the static pipeline and
/// once under the task runtime, full fidelity, same seed.
pub fn measure_tasks(base: &RunConfig, scene: &Arc<Scene>) -> TasksReport {
    let mut points = Vec::new();
    for mode in [
        RendererMode::SingleRenderer,
        RendererMode::PerPipelineRenderer,
        RendererMode::McpcRenderer,
    ] {
        let mut st = base.clone();
        st.renderer = mode;
        st.runtime = Runtime::Static;
        st.trace = false;
        let static_report = crate::run(st.clone(), Arc::clone(scene));
        let static_film: Vec<u64> = static_report
            .outputs
            .as_ref()
            .expect("full fidelity")
            .iter()
            .map(frame_checksum)
            .collect();

        let mut tk = st.clone();
        tk.runtime = Runtime::Tasks;
        let tasks_report = crate::run(tk, Arc::clone(scene));
        let tasks_film: Vec<u64> = tasks_report
            .outputs
            .as_ref()
            .expect("full fidelity")
            .iter()
            .map(frame_checksum)
            .collect();

        points.push(TasksPoint {
            mode,
            static_secs: static_report.total_secs,
            tasks_secs: tasks_report.total_secs,
            static_idle: IdleSpread::of(&static_report),
            tasks_idle: IdleSpread::of(&tasks_report),
            bit_identical: static_film == tasks_film,
            stats: tasks_report.task_stats.expect("task ledger present"),
        });
    }
    TasksReport {
        config: base.clone(),
        points,
    }
}

impl TasksReport {
    /// Render the report as the `BENCH_tasks.json` document.
    pub fn to_json(&self) -> String {
        let config = Json::obj()
            .field("pipelines", Json::U64(u64::from(self.config.pipelines)))
            .field("width", Json::U64(u64::from(self.config.width)))
            .field("height", Json::U64(u64::from(self.config.height)))
            .field("frames", Json::U64(self.config.frames))
            .field("seed", Json::U64(self.config.seed))
            .field(
                "queue_capacity",
                Json::U64(u64::from(self.config.task_tuning.queue_capacity)),
            )
            .field(
                "steal_timeout_us",
                Json::U64(self.config.task_tuning.steal_timeout_us),
            )
            .field(
                "steal_retries",
                Json::U64(u64::from(self.config.task_tuning.steal_retries)),
            );
        let idle = |s: &IdleSpread| {
            Json::obj()
                .field("q1", Json::F64(s.q1))
                .field("q2", Json::F64(s.q2))
                .field("q3", Json::F64(s.q3))
                .field("spread", Json::F64(s.spread()))
        };
        let points = Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    Json::obj()
                        .field("mode", Json::str(p.mode.name()))
                        .field("static_secs", Json::F64(p.static_secs))
                        .field("tasks_secs", Json::F64(p.tasks_secs))
                        .field("static_idle", idle(&p.static_idle))
                        .field("tasks_idle", idle(&p.tasks_idle))
                        .field("spread_reduction_pct", Json::F64(p.spread_reduction_pct()))
                        .field("bit_identical", Json::Bool(p.bit_identical))
                        .field("spawned", Json::U64(p.stats.spawned))
                        .field("completed", Json::U64(p.stats.completed))
                        .field("executed", Json::U64(p.stats.executed))
                        .field("requeued", Json::U64(p.stats.requeued))
                        .field("steal_attempts", Json::U64(p.stats.steal_attempts))
                        .field("steals", Json::U64(p.stats.steals))
                        .field(
                            "backpressure_stalls",
                            Json::U64(p.stats.backpressure_stalls),
                        )
                        .field("max_queue_depth", Json::U64(p.stats.max_queue_depth))
                })
                .collect(),
        );
        Json::obj()
            .field("bench", Json::str("tasks"))
            .field("config", config)
            .field(
                "note",
                Json::str(
                    "virtual-time sweep: static pipeline vs dependency-driven \
                     task runtime per renderer mode; idle quartiles are \
                     per-filter-core idle fractions (1 - busy/makespan), the \
                     spread gate is Q3 - Q1 strictly lower under Tasks at a \
                     bit-identical film",
                ),
            )
            .field("points", points)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_core::Fidelity;
    use scc_render::CityConfig;

    #[test]
    fn sweep_reduces_spread_at_identical_film() {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(48, 48)
            .frames(6)
            .seed(5)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 1,
        }));
        let report = measure_tasks(&cfg, &scene);
        assert_eq!(report.points.len(), 3);
        assert!(report.output_consistent(), "a mode moved a pixel");
        assert!(report.no_lost_tasks(), "a mode lost a task");
        assert!(report.spread_reduced(), "idle spread not reduced");
        let json = report.to_json();
        for key in [
            "\"bench\": \"tasks\"",
            "\"spread_reduction_pct\"",
            "\"bit_identical\": true",
            "\"steals\"",
            "\"max_queue_depth\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        crate::tests::assert_keys_match_committed("tasks", &json);
    }
}
