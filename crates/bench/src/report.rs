//! Plain-text rendering of experiment results (the same rows/series the
//! paper's figures and Table I report).

use crate::experiments::{EnergyComparison, IdleRow, PowerCurve, ScalePoint, SizePoint, TableRow};
use scc_core::{Arrangement, BaselineReport};

/// Figure 8 as a labelled bar list.
pub fn render_fig8(r: &BaselineReport) -> String {
    let mut s = String::new();
    s.push_str("Overall stage running time using one SCC core\n");
    for (kind, secs) in &r.stage_secs {
        s.push_str(&format!("  {:<9} {:>8.1} s\n", kind.name(), secs));
    }
    s.push_str(&format!("  {:<9} {:>8.1} s\n", "TOTAL", r.total_secs));
    s.push_str(&format!(
        "  render only: {:.1} s, render+transfer: {:.1} s\n",
        r.render_only_secs, r.render_transfer_secs
    ));
    s
}

/// A scaling figure (Figures 9-11) as a table: pipelines × arrangements.
pub fn render_scaling(title: &str, points: &[ScalePoint]) -> String {
    let mut s = format!("{title}\n  pl   unordered   ordered   flipped\n");
    let max_p = points.iter().map(|p| p.pipelines).max().unwrap_or(0);
    for p in 1..=max_p {
        let find = |arr: Arrangement| {
            points
                .iter()
                .find(|x| x.pipelines == p && x.arrangement == arr)
                .map(|x| format!("{:>8.1}s", x.secs))
                .unwrap_or_else(|| "       -".into())
        };
        s.push_str(&format!(
            "  {:>2}  {}  {}  {}\n",
            p,
            find(Arrangement::Unordered),
            find(Arrangement::Ordered),
            find(Arrangement::Flipped),
        ));
    }
    s
}

/// Figure 12's series.
pub fn render_fig12(points: &[SizePoint]) -> String {
    let mut s =
        String::from("Rendering time with increasing image sizes\n  side(data)      time\n");
    for p in points {
        s.push_str(&format!(
            "  {:>3}({:>3}kb)  {:>8.1} s\n",
            p.side, p.kilobytes, p.secs
        ));
    }
    s
}

/// Table I.
pub fn render_table1(rows: &[TableRow]) -> String {
    let mut s = String::from("Overview of the results\n");
    s.push_str(&format!("{:<22}", ""));
    for p in 1..=7 {
        s.push_str(&format!("{:>8}", format!("{p} pl.")));
    }
    s.push('\n');
    for row in rows {
        s.push_str(&format!("{:<22}", row.label));
        for v in &row.secs {
            if v.is_nan() {
                s.push_str(&format!("{:>8}", "-"));
            } else {
                s.push_str(&format!("{:>7.0}s", v));
            }
        }
        s.push('\n');
    }
    s
}

/// Figure 14/17-style power curves, decimated for terminal output.
pub fn render_power_curves(title: &str, curves: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut s = format!("{title}\n");
    for (label, samples) in curves {
        let avg = if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|(_, w)| w).sum::<f64>() / samples.len() as f64
        };
        let max = samples.iter().map(|(_, w)| *w).fold(0.0, f64::max);
        s.push_str(&format!(
            "  {:<28} avg {:>5.1} W   peak {:>5.1} W   ({} samples)\n",
            label,
            avg,
            max,
            samples.len()
        ));
    }
    s
}

/// Figure 14 wrapper.
pub fn render_fig14(curves: &[PowerCurve]) -> String {
    let list: Vec<(String, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|c| (c.label.clone(), c.samples.clone()))
        .collect();
    render_power_curves("SCC power consumption with MCPC for rendering", &list)
}

/// Figure 15's box-plot data.
pub fn render_fig15(rows: &[IdleRow]) -> String {
    let mut s = String::from("Idle times with MCPC renderer and seven pipelines (per frame, ms)\n");
    s.push_str("  stage      q1      median  q3\n");
    for r in rows {
        s.push_str(&format!(
            "  {:<9} {:>7.1} {:>7.1} {:>7.1}\n",
            r.stage.name(),
            r.quartiles.q1,
            r.quartiles.median,
            r.quartiles.q3
        ));
    }
    s
}

/// §VI-B energy comparison.
pub fn render_energy(e: &EnergyComparison) -> String {
    format!(
        "Energy comparison (§VI-B)\n\
         hybrid (MCPC + 5 pl.): {:.1} s at {:.1} W mean, MCPC renders {:.1} s -> {:.0} J\n\
         n-renderer (7 pl.):    {:.1} s at {:.1} W mean                     -> {:.0} J\n",
        e.hybrid_secs,
        e.hybrid_mean_power,
        e.hybrid_mcpc_render_secs,
        e.hybrid_energy_joules,
        e.nrend_secs,
        e.nrend_mean_power,
        e.nrend_energy_joules
    )
}

/// CSV rendering of a scaling figure: `pipelines,unordered,ordered,flipped`.
pub fn csv_scaling(points: &[ScalePoint]) -> String {
    let mut s = String::from("pipelines,unordered,ordered,flipped\n");
    let max_p = points.iter().map(|p| p.pipelines).max().unwrap_or(0);
    for p in 1..=max_p {
        let find = |arr: Arrangement| {
            points
                .iter()
                .find(|x| x.pipelines == p && x.arrangement == arr)
                .map(|x| format!("{:.3}", x.secs))
                .unwrap_or_default()
        };
        s.push_str(&format!(
            "{},{},{},{}\n",
            p,
            find(Arrangement::Unordered),
            find(Arrangement::Ordered),
            find(Arrangement::Flipped)
        ));
    }
    s
}

/// CSV rendering of Figure 12: `side,kilobytes,seconds`.
pub fn csv_fig12(points: &[SizePoint]) -> String {
    let mut s = String::from("side,kilobytes,seconds\n");
    for p in points {
        s.push_str(&format!("{},{},{:.3}\n", p.side, p.kilobytes, p.secs));
    }
    s
}

/// CSV rendering of power curves: `seconds,watts` per labelled block,
/// long format: `label,seconds,watts`.
pub fn csv_power_curves(curves: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut s = String::from("label,seconds,watts\n");
    for (label, samples) in curves {
        for (t, w) in samples {
            s.push_str(&format!("{label},{t:.1},{w:.3}\n"));
        }
    }
    s
}

/// CSV rendering of Figure 15: `stage,q1,median,q3`.
pub fn csv_fig15(rows: &[IdleRow]) -> String {
    let mut s = String::from("stage,q1,median,q3\n");
    for r in rows {
        s.push_str(&format!(
            "{},{:.2},{:.2},{:.2}\n",
            r.stage.name(),
            r.quartiles.q1,
            r.quartiles.median,
            r.quartiles.q3
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_core::StageKind;
    use scc_sim::stats::Quartiles;

    #[test]
    fn scaling_table_renders_all_points() {
        let pts = vec![
            ScalePoint {
                pipelines: 1,
                arrangement: Arrangement::Ordered,
                secs: 100.0,
            },
            ScalePoint {
                pipelines: 2,
                arrangement: Arrangement::Flipped,
                secs: 55.0,
            },
        ];
        let s = render_scaling("t", &pts);
        assert!(s.contains("100.0s"));
        assert!(s.contains("55.0s"));
        assert!(s.contains("-"), "missing cells dashed");
    }

    #[test]
    fn table1_handles_nan() {
        let rows = vec![TableRow {
            label: "n rend., ordered".into(),
            secs: vec![100.0, 50.0, f64::NAN],
        }];
        let s = render_table1(&rows);
        assert!(s.contains("100s"));
        assert!(s.contains("-"));
    }

    #[test]
    fn fig15_renders_quartiles() {
        let rows = vec![IdleRow {
            stage: StageKind::Blur,
            quartiles: Quartiles {
                min: 1.0,
                q1: 2.0,
                median: 3.0,
                q3: 4.0,
                max: 5.0,
            },
        }];
        let s = render_fig15(&rows);
        assert!(s.contains("blur"));
        assert!(s.contains("3.0"));
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_scaling_is_rectangular() {
        let pts = vec![
            ScalePoint {
                pipelines: 1,
                arrangement: Arrangement::Ordered,
                secs: 10.0,
            },
            ScalePoint {
                pipelines: 2,
                arrangement: Arrangement::Ordered,
                secs: 5.0,
            },
        ];
        let csv = csv_scaling(&pts);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("pipelines,"));
        assert_eq!(lines[1].split(',').count(), 4);
        assert!(lines[2].contains("5.000"));
    }

    #[test]
    fn csv_fig12_rows() {
        let csv = csv_fig12(&[SizePoint {
            side: 400,
            kilobytes: 640,
            secs: 204.0,
        }]);
        assert!(csv.contains("400,640,204.000"));
    }
}
