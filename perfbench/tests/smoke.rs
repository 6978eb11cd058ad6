//! Smoke-size runs of every workload, untraced and traced: each must
//! pass all of its output checks and emit exactly its declared metrics,
//! each with its unit and a finite value.

use perfbench::{run, Options, Report, Scale, Workload};

fn smoke(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::Smoke,
    })
}

fn assert_complete(workload: Workload, trace: bool) {
    let report = smoke(workload, trace);
    let what = format!("{} trace={trace}", workload.name());
    assert!(
        report.correct(),
        "{what}: {} of {} operations failed: {:?}",
        report.failed,
        report.attempted,
        report.failures
    );
    let expected = Report::expected(trace);
    let mut emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    emitted.sort_unstable();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    assert_eq!(emitted, want, "{what}: emitted metrics");
    for m in &report.metrics {
        let unit = expected.iter().find(|(n, _)| *n == m.name).map(|(_, u)| *u);
        assert_eq!(Some(m.unit), unit, "{what}: unit of {}", m.name);
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    let line = report.result_json().to_string();
    let doc = snn_json::Json::parse(&line).expect("result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(doc.get(key).is_some(), "{what}: result line lacks {key}");
    }
    if trace {
        let chrome = report.tracer.chrome_json();
        assert!(
            snn_json::Json::parse(&chrome).is_ok(),
            "{what}: trace is not JSON"
        );
        assert!(report.tracer.span_count() > 0, "{what}: no spans recorded");
    }
}

#[test]
fn train_shd_untraced() {
    assert_complete(Workload::TrainShd, false);
}

#[test]
fn train_shd_traced() {
    assert_complete(Workload::TrainShd, true);
}

#[test]
fn http_shd_untraced() {
    assert_complete(Workload::HttpShd, false);
}

#[test]
fn http_shd_traced() {
    assert_complete(Workload::HttpShd, true);
}

#[test]
fn stream_nmnist_untraced() {
    assert_complete(Workload::StreamNmnist, false);
}

#[test]
fn stream_nmnist_traced() {
    assert_complete(Workload::StreamNmnist, true);
}
