//! Capability-run execution: each (benchmark, scale, combo) point is run
//! ten times with seeded noise; runs beyond the 15-minute walltime are
//! dropped (the paper's missing data points); metrics and relative gains
//! follow Section 4.4.4.

use crate::combos::Combo;
use crate::system::T2hx;
use hxload::imb::ImbCollective;
use hxload::workload::Workload;
use hxsim::stats::{relative_gain_higher_better, relative_gain_lower_better};
use hxsim::{NoiseModel, Whisker};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Repetitions per configuration (paper: 10).
    pub reps: u32,
    /// Walltime cutoff in seconds (paper: 15 min).
    pub walltime: f64,
    /// Run-to-run variability model.
    pub noise: NoiseModel,
    /// Seed for placement randomization.
    pub placement_seed: u64,
}

impl Default for Runner {
    fn default() -> Self {
        Runner {
            reps: 10,
            walltime: 900.0,
            noise: NoiseModel::default(),
            placement_seed: 0x7258,
        }
    }
}

/// Outcome of the repetitions at one configuration point.
#[derive(Debug, Clone)]
pub struct Samples {
    /// Metric values of the completed runs (may be empty if every run blew
    /// the walltime).
    pub values: Vec<f64>,
    /// Kernel times of completed runs (seconds).
    pub times: Vec<f64>,
    /// Repetitions attempted.
    pub attempted: u32,
}

impl Samples {
    /// Whisker over the metric values, if any run completed.
    pub fn whisker(&self) -> Option<Whisker> {
        (!self.values.is_empty()).then(|| Whisker::of(&self.values))
    }

    /// The paper's headline number: best observed value (t_min for
    /// lower-is-better metrics, max otherwise).
    pub fn best(&self, higher_is_better: bool) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(if higher_is_better {
            self.values.iter().copied().fold(f64::MIN, f64::max)
        } else {
            self.values.iter().copied().fold(f64::MAX, f64::min)
        })
    }
}

fn tag(combo: Combo, name: &str, n: usize, bytes: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (combo.label(), name, n, bytes).hash(&mut h);
    h.finish()
}

impl Runner {
    /// Runs a workload at `n` ranks under a combo.
    pub fn run(&self, sys: &T2hx, combo: Combo, w: &dyn Workload, n: usize) -> Samples {
        let mut run_sp = hxobs::Span::root(hxobs::track::RUNNER, 0, "experiment_run", "core");
        run_sp.arg("combo", hxobs::Json::from(combo.label()));
        run_sp.arg("workload", hxobs::Json::from(w.name()));
        run_sp.arg("ranks", hxobs::Json::from(n));
        let fabric = sys.fabric(combo, n, self.placement_seed);
        let base = w.kernel_seconds(&fabric, n);
        let t = tag(combo, w.name(), n, 0);
        let mut values = Vec::with_capacity(self.reps as usize);
        let mut times = Vec::with_capacity(self.reps as usize);
        for rep in 0..self.reps {
            let time = self.noise.apply(base, t, rep);
            if time <= self.walltime {
                values.push(w.metric_value(n, time));
                times.push(time);
            }
        }
        hxobs::count("core.runs", 1);
        hxobs::count("core.reps", self.reps as u64);
        hxobs::count(
            "core.walltime_dropped_reps",
            self.reps as u64 - values.len() as u64,
        );
        for &kt in &times {
            hxobs::sample("core.rep_kernel_seconds", hxobs::Scope::NONE, kt);
        }
        run_sp.arg("completed", hxobs::Json::from(values.len()));
        run_sp.arg(
            "dropped",
            hxobs::Json::from(self.reps as u64 - values.len() as u64),
        );
        run_sp.end();
        Samples {
            values,
            times,
            attempted: self.reps,
        }
    }

    /// IMB best-case latency (µs): the minimum over repetitions, which with
    /// one-sided noise equals the noiseless estimate (the paper extracts
    /// the absolute best t_min of the 10 runs, Section 5.1).
    pub fn imb_tmin_us(
        &self,
        sys: &T2hx,
        combo: Combo,
        coll: ImbCollective,
        n: usize,
        bytes: u64,
    ) -> f64 {
        let fabric = sys.fabric(combo, n, self.placement_seed);
        coll.latency_us(&fabric, n, bytes)
    }

    /// IMB latency whiskers over the repetitions (for Figure 5b).
    pub fn imb_whisker_us(
        &self,
        sys: &T2hx,
        combo: Combo,
        coll: ImbCollective,
        n: usize,
        bytes: u64,
    ) -> Whisker {
        let base = self.imb_tmin_us(sys, combo, coll, n, bytes);
        let t = tag(combo, coll.name(), n, bytes);
        let samples: Vec<f64> = (0..self.reps)
            .map(|rep| self.noise.apply(base, t, rep))
            .collect();
        Whisker::of(&samples)
    }

    /// Relative gain of `combo` over the baseline for an IMB point
    /// (Figure 4 cells; latency is lower-is-better).
    pub fn imb_gain(
        &self,
        sys: &T2hx,
        combo: Combo,
        coll: ImbCollective,
        n: usize,
        bytes: u64,
    ) -> f64 {
        let base = self.imb_tmin_us(sys, Combo::baseline(), coll, n, bytes);
        let new = self.imb_tmin_us(sys, combo, coll, n, bytes);
        relative_gain_lower_better(base, new)
    }

    /// Relative gain of `combo` over the baseline for a workload point
    /// (Figures 5a, 6): best-of-10 vs best-of-10. `None` when either side
    /// never finished within the walltime (the paper's ±Inf entries).
    pub fn workload_gain(
        &self,
        sys: &T2hx,
        combo: Combo,
        w: &dyn Workload,
        n: usize,
    ) -> Option<f64> {
        let hib = w.metric().higher_is_better();
        let base = self.run(sys, Combo::baseline(), w, n).best(hib)?;
        let new = self.run(sys, combo, w, n).best(hib)?;
        Some(if hib {
            relative_gain_higher_better(base, new)
        } else {
            relative_gain_lower_better(base, new)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxload::proxy::Amg;
    use hxload::x500::Hpl;

    fn runner() -> Runner {
        Runner {
            reps: 5,
            ..Runner::default()
        }
    }

    #[test]
    fn run_produces_samples_with_noise() {
        let sys = T2hx::mini().unwrap();
        let r = runner();
        let w = Amg { iters: 5 };
        let s = r.run(&sys, Combo::FtFtreeLinear, &w, 16);
        assert_eq!(s.attempted, 5);
        assert!(!s.values.is_empty());
        let wk = s.whisker().unwrap();
        assert!(wk.max >= wk.min);
        assert!(wk.min > 0.0);
    }

    #[test]
    fn walltime_cutoff_drops_runs() {
        let sys = T2hx::mini().unwrap();
        let mut r = runner();
        r.walltime = 1e-9; // everything times out
        let w = Amg { iters: 2 };
        let s = r.run(&sys, Combo::FtFtreeLinear, &w, 8);
        assert!(s.values.is_empty());
        assert!(s.whisker().is_none());
        assert!(s.best(false).is_none());
    }

    #[test]
    fn gains_are_comparable_across_combos() {
        let sys = T2hx::mini().unwrap();
        let r = runner();
        let w = Amg { iters: 3 };
        for combo in Combo::all() {
            let g = r.workload_gain(&sys, combo, &w, 16).unwrap();
            // A compute-dominated stencil app must be within a few percent
            // on every combo (paper Fig. 6a).
            assert!(g.abs() < 0.25, "{}: {g}", combo.label());
        }
    }

    #[test]
    fn baseline_gain_is_zero() {
        let sys = T2hx::mini().unwrap();
        let mut r = runner();
        r.noise = NoiseModel::none();
        let w = Hpl { steps: 4 };
        let g = r.workload_gain(&sys, Combo::baseline(), &w, 16).unwrap();
        assert!(g.abs() < 1e-12, "{g}");
    }

    #[test]
    fn imb_tmin_is_deterministic() {
        let sys = T2hx::mini().unwrap();
        let r = runner();
        let a = r.imb_tmin_us(&sys, Combo::HxDfssspLinear, ImbCollective::Bcast, 16, 1024);
        let b = r.imb_tmin_us(&sys, Combo::HxDfssspLinear, ImbCollective::Bcast, 16, 1024);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn parx_barrier_regression_reproduced() {
        // Paper Fig. 5b: PARX slows Barrier 2.8x-6.9x (gain -0.65..-0.85)
        // through the bfo PML overhead.
        let sys = T2hx::mini().unwrap();
        let r = runner();
        let g = r.imb_gain(&sys, Combo::HxParxClustered, ImbCollective::Barrier, 16, 0);
        assert!(
            (-0.90..=-0.45).contains(&g),
            "PARX barrier gain {g} outside the paper's band"
        );
    }

    #[test]
    fn imb_whisker_ordering() {
        let sys = T2hx::mini().unwrap();
        let r = runner();
        let w = r.imb_whisker_us(
            &sys,
            Combo::FtFtreeLinear,
            ImbCollective::Allreduce,
            16,
            4096,
        );
        assert!(w.min <= w.median && w.median <= w.max);
    }
}
