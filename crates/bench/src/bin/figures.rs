//! Regenerates every table and figure of the paper's evaluation (§8).
//!
//! Usage:
//! ```text
//! figures [--scale small|medium|large] [--out DIR] [EXPERIMENT...]
//! ```
//! With no experiment names, all experiments run. Available names:
//! `fig9 fig10 fig11 fig12-road fig12-grid fig12-size fig12-density
//! fig12-ablation fig3d beam-vs-iter speed-mode map-inference coverage-skew`.
//!
//! Each experiment prints paper-style tables to stdout and writes a
//! machine-readable JSON series to `--out` (default `results/`).

use kamel_bench::{
    beam_vs_iterative, fig10, fig11, fig12_ablation, fig12_density, fig12_grid, fig12_road,
    coverage_skew, fig12_size, fig3d, fig9, map_inference, speed_mode, City, Figure,
};
use kamel_roadsim::DatasetScale;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut scale = DatasetScale::Medium;
    let mut out_dir = PathBuf::from("results");
    let mut svg = false;
    let mut wanted: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("small") => DatasetScale::Small,
                    Some("medium") => DatasetScale::Medium,
                    Some("large") => DatasetScale::Large,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }))
            }
            "--svg" => svg = true,
            "--help" | "-h" => {
                println!(
                    "figures [--scale small|medium|large] [--out DIR] [--svg] [EXPERIMENT...]\n\
                     experiments: fig9 fig10 fig11 fig12-road fig12-grid fig12-size \
                     fig12-density fig12-ablation fig3d beam-vs-iter speed-mode map-inference coverage-skew"
                );
                return;
            }
            name => wanted.push(name.to_string()),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let all = wanted.is_empty();
    let run = |name: &str| all || wanted.iter().any(|w| w == name);

    if run("fig9") {
        for city in [City::Porto, City::Jakarta] {
            timed(&format!("fig9 {}", city.name()), || {
                emit_figure_opts(&fig9(city, scale), &out_dir, svg)
            });
        }
    }
    if run("fig10") {
        for city in [City::Porto, City::Jakarta] {
            timed(&format!("fig10 {}", city.name()), || {
                emit_figure_opts(&fig10(city, scale), &out_dir, svg)
            });
        }
    }
    if run("fig11") {
        timed("fig11 timing", || {
            let rows = fig11(scale);
            println!("== fig11 | training & imputation time");
            println!(
                "{:<14} {:<12} {:>12} {:>12}",
                "dataset", "technique", "train(s)", "impute(s)"
            );
            for r in &rows {
                println!(
                    "{:<14} {:<12} {:>12} {:>12.2}",
                    r.dataset,
                    r.technique,
                    r.train_time_s.map_or("-".into(), |t| format!("{t:.2}")),
                    r.impute_time_s
                );
            }
            write_json(&out_dir.join("fig11.json"), &rows);
        });
    }
    if run("fig12-road") {
        timed("fig12-road", || {
            let rows = fig12_road(scale);
            println!("== fig12-I/II | road type (jakarta-like)");
            println!(
                "{:<10} {:<12} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
                "sparse_m", "technique", "s.rec", "s.prec", "s.fail", "c.rec", "c.prec", "c.fail"
            );
            for r in &rows {
                println!(
                    "{:<10} {:<12} {:>8.3} {:>8.3} {:>8} | {:>8.3} {:>8.3} {:>8}",
                    r.sparse_m,
                    r.technique,
                    r.straight.recall,
                    r.straight.precision,
                    fmt_opt(r.straight.failure_rate),
                    r.curved.recall,
                    r.curved.precision,
                    fmt_opt(r.curved.failure_rate),
                );
            }
            write_json(&out_dir.join("fig12-road.json"), &rows);
        });
    }
    if run("fig12-grid") {
        timed("fig12-grid", || emit_figure_opts(&fig12_grid(scale), &out_dir, svg));
    }
    if run("fig12-size") {
        timed("fig12-size", || emit_figure_opts(&fig12_size(scale), &out_dir, svg));
    }
    if run("fig12-density") {
        timed("fig12-density", || {
            emit_figure_opts(&fig12_density(scale), &out_dir, svg)
        });
    }
    if run("fig12-ablation") {
        timed("fig12-ablation", || {
            emit_figure_opts(&fig12_ablation(scale), &out_dir, svg)
        });
    }
    if run("fig3d") {
        timed("fig3d", || emit_figure_opts(&fig3d(scale), &out_dir, svg));
    }
    if run("beam-vs-iter") {
        timed("beam-vs-iter", || {
            emit_figure_opts(&beam_vs_iterative(scale), &out_dir, svg)
        });
    }
    if run("speed-mode") {
        timed("speed-mode", || emit_figure_opts(&speed_mode(scale), &out_dir, svg));
    }
    if run("coverage-skew") {
        timed("coverage-skew", || {
            emit_figure_opts(&coverage_skew(scale), &out_dir, svg)
        });
    }
    if run("map-inference") {
        timed("map-inference", || {
            let rows = map_inference(scale);
            println!("== map-inference | porto-like, 1.5 km sparsity");
            println!(
                "{:<14} {:>12} {:>15} {:>8}",
                "input", "road recall", "road precision", "F1"
            );
            for r in &rows {
                println!(
                    "{:<14} {:>12.3} {:>15.3} {:>8.3}",
                    r.input, r.road_recall, r.road_precision, r.f1
                );
            }
            write_json(&out_dir.join("map-inference.json"), &rows);
        });
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".into(), |f| format!("{f:.3}"))
}

fn emit_figure_opts(fig: &Figure, out_dir: &Path, svg: bool) {
    print!("{}", fig.render());
    write_json(&out_dir.join(format!("{}.json", fig.id)), fig);
    if svg {
        for (panel, doc) in kamel_bench::svg::figure_to_svgs(fig) {
            let path = out_dir.join(format!("{}-{panel}.svg", fig.id));
            std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        }
    }
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string(value).expect("serialize results");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
}

fn timed(label: &str, f: impl FnOnce()) {
    let start = Instant::now();
    f();
    eprintln!("[{label}] done in {:.1}s", start.elapsed().as_secs_f64());
}
