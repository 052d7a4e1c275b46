//! `compare A.json B.json`: B (the change) against A (the parent), one row
//! per workload and metric, by each metric's own direction and bound.

use crate::catalog::Better;
use crate::json::{as_arr, as_f64, as_str, get};
use crate::measure::{quartiles, reported};
use crate::report::show;
use scc_telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs' spread is wider than the bound and the two sets
    /// overlap: neither a regression nor its absence can be claimed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge the change's samples `b` against the parent's `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (va, vb) = (reported(a, better), reported(b, better));
    let worse_by = sign * (vb - va) / va.abs();
    let noisy = qa.iqr() / qa.median.abs() > bound || qb.iqr() / qb.median.abs() > bound;
    if noisy {
        let (a_best, a_worst, b_best, b_worst) = if better == Better::Lower {
            (qa.min, qa.max, qb.min, qb.max)
        } else {
            (qa.max, qa.min, qb.max, qb.min)
        };
        return if sign * (b_worst - a_best) < 0.0 {
            Verdict::Better
        } else if sign * (b_best - a_worst) > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    get(doc, key).ok_or_else(|| format!("results file lacks `{key}`"))
}

fn number(doc: &Json, key: &str) -> Result<f64, String> {
    as_f64(field(doc, key)?).ok_or_else(|| format!("`{key}` is not a number"))
}

fn samples(metric: &Json) -> Result<Vec<f64>, String> {
    let s: Vec<f64> = as_arr(field(metric, "samples")?)
        .iter()
        .filter_map(as_f64)
        .collect();
    if s.is_empty() {
        return Err("a metric has no samples".into());
    }
    Ok(s)
}

fn failed_share(workload: &Json) -> Result<f64, String> {
    let mut failed = 0.0;
    let mut attempted = 0.0;
    for pass in ["untraced", "traced"] {
        let checks = field(workload, pass)?;
        failed += number(checks, "failed")?;
        attempted += number(checks, "attempted")?;
        if field(checks, "correct")? != &Json::Bool(true) {
            // An incorrect pass with no failed operation still counts.
            failed = failed.max(1.0);
        }
    }
    Ok(failed / attempted.max(1.0))
}

fn objects(doc: &Json) -> &[(String, Json)] {
    match doc {
        Json::Obj(fields) => fields,
        _ => &[],
    }
}

/// Print the comparison; `Ok(true)` when no end-to-end metric is worse
/// and no workload fails a larger share of its operations.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    for (key, what) in [
        (
            "host_cpus",
            "host-time numbers compare only at equal host_cpus",
        ),
        ("seed", "exact metrics compare only at equal seed"),
    ] {
        if field(a, key)? != field(b, key)? {
            println!("note: {key} differs between the files; {what}");
        }
    }
    let mut ok = true;
    println!(
        "{:<20} {:<38} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for wa in as_arr(field(a, "workloads")?) {
        let name = as_str(field(wa, "name")?).ok_or("workload name is not a string")?;
        let Some(wb) = as_arr(field(b, "workloads")?)
            .iter()
            .find(|w| get(w, "name").and_then(as_str) == Some(name))
        else {
            println!("{name:<20} missing from B");
            ok = false;
            continue;
        };
        let row = |metric: &str, va: f64, vb: f64, verdict: &str| {
            println!(
                "{name:<20} {metric:<38} {:>14} {:>14} {:>+7.2}%  {verdict}",
                show(va),
                show(vb),
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE)
            );
        };

        let (fa, fb) = (failed_share(wa)?, failed_share(wb)?);
        let verdict = if fb > fa { "worse" } else { "same" };
        println!(
            "{name:<20} {:<38} {:>14} {:>14} {:>8}  {verdict}",
            "failed_share",
            show(fa),
            show(fb),
            ""
        );
        ok &= fb <= fa;

        let e2e_b = field(wb, "end_to_end")?;
        for (metric, ma) in objects(field(wa, "end_to_end")?) {
            let mb = field(e2e_b, metric)?;
            let better = match as_str(field(ma, "better")?) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{metric}: `better` is neither higher nor lower")),
            };
            let verdict = judge(&samples(ma)?, &samples(mb)?, better, number(ma, "bound")?);
            row(
                metric,
                number(ma, "value")?,
                number(mb, "value")?,
                verdict.name(),
            );
            ok &= verdict != Verdict::Worse;
        }

        // Exact per-layer metrics (virtual time, counts) must not move
        // at all between two runs of one commit at one seed.
        let layers_b = field(wb, "per_layer")?;
        for (metric, la) in objects(field(wa, "per_layer")?) {
            if field(la, "exact")? != &Json::Bool(true) {
                continue;
            }
            let (va, vb) = (
                number(la, "value")?,
                number(field(layers_b, metric)?, "value")?,
            );
            if va.to_bits() != vb.to_bits() {
                row(metric, va, vb, "changed (exact)");
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn quiet_runs_are_judged_by_the_bound() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&a, &[100.5, 101.5, 99.5], Higher, 0.10),
            Verdict::Same
        );
        assert_eq!(judge(&a, &[80.0, 81.0, 79.0], Higher, 0.10), Verdict::Worse);
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0], Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0], Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(judge(&a, &[80.0, 81.0, 79.0], Lower, 0.10), Verdict::Better);
    }

    #[test]
    fn noisy_runs_resolve_only_when_they_do_not_overlap() {
        let a = [100.0, 140.0, 60.0, 120.0, 80.0];
        assert_eq!(
            judge(&a, &[90.0, 130.0, 70.0], Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&a, &[150.0, 190.0, 141.0], Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(judge(&a, &[50.0, 20.0, 59.0], Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &[50.0, 20.0, 59.0], Lower, 0.10), Verdict::Better);
    }
}
