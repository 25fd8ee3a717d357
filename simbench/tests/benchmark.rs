//! The benchmark's own checks: metric names, the percentile rule, and a
//! tiny run of every workload through every check.

use janus_simbench::measure::{measure, Options};
use janus_simbench::metrics::{END_TO_END, PER_LAYER};
use janus_simbench::report::{metrics, result_json};
use janus_simbench::stats::{summarize, tail_percentile, TAIL_MIN_BEYOND};
use janus_simbench::suite::{Bench, Size};

fn tiny(bench: Bench, trace: bool) -> Options {
    Options {
        bench,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

#[test]
fn metric_names_are_valid_unique_and_listed_in_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !d.name.is_empty()
                && d.name.len() <= 64
                && d.name
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c)),
            "{}",
            d.name
        );
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
            "{}",
            d.unit
        );
        assert!(seen.insert(d.name), "{} defined twice", d.name);
        assert!(
            json.contains(&format!("\"name\": \"{}\"", d.name)),
            "{} missing from BENCHMARK.json",
            d.name
        );
    }
    for b in Bench::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", b.name())));
    }
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50));
    assert_eq!(tail_percentile(21), Some(52));
    assert_eq!(tail_percentile(100), Some(90));
    assert_eq!(tail_percentile(1000), Some(99));
    for n in 20..2000usize {
        let p = tail_percentile(n).expect("a tail from 20 samples on") as usize;
        let rank = |p: usize| (p * n).div_ceil(100);
        assert!(n - rank(p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        assert!(
            p == 99 || n - rank(p + 1) < TAIL_MIN_BEYOND,
            "n={n}: p{} also qualifies",
            p + 1
        );
    }
    let samples: Vec<f64> = (1..=20).map(f64::from).collect();
    let s = summarize(&samples).expect("samples");
    assert_eq!((s.median, s.tail, s.n), (10.5, Some((50, 10.0)), 20));
    assert_eq!(summarize(&[3.0, 1.0, 2.0]).map(|s| s.median), Some(2.0));
    assert!(summarize(&[]).is_none());
}

#[test]
fn tiny_run_of_every_workload_passes_every_check() {
    for bench in Bench::ALL {
        for trace in [false, true] {
            let opts = tiny(bench, trace);
            let o = measure(&opts);
            assert!(
                o.correct(),
                "{} trace={trace}: {:?}",
                bench.name(),
                o.problems
            );
            assert_eq!(o.failed, 0);
            let defs = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let got = metrics(&opts, &o);
            let names: Vec<&str> = got.iter().map(|m| m.def.name).collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "{} trace={trace}", bench.name());
            if !trace {
                assert!(
                    got.iter().all(|m| m.summary.median > 0.0),
                    "{}",
                    bench.name()
                );
            }
            let line = result_json(&opts, &o);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            if trace {
                assert!(!o.spans.spans().is_empty());
            }
        }
    }
}
