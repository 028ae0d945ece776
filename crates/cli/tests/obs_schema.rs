//! Schema-walk tests for the two observability artifacts: the Chrome
//! trace-event export (`--trace`) and the `atss.metrics.v1` envelope
//! (`--metrics`). Every event and every envelope field is visited and
//! type-checked through the serde_json shim, independently of the
//! tool's own `trace-lint` (which is exercised separately and must
//! agree).

use std::sync::Mutex;

use at_cli::args::{parse, ParsedArgs};
use at_cli::commands::{trace_lint, tune};

/// The recorder is process-global; the two tests in this binary must not
/// overlap.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn parsed(args: &[&str]) -> ParsedArgs {
    parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

/// One traced multi-threaded tune run, returning (trace text, tune --json
/// line with the embedded envelope).
fn traced_tune(trace: &std::path::Path) -> (String, String) {
    let out = tune(&parsed(&[
        "tune",
        "--workload",
        "dedispersion",
        "--strategy",
        "particle-swarm",
        "--budget-ms",
        "1500",
        "--seed",
        "11",
        "--construction-ms",
        "0",
        "--eval-threads",
        "3",
        "--json",
        "--metrics",
        "--trace",
        trace.to_str().unwrap(),
    ]))
    .unwrap();
    (std::fs::read_to_string(trace).unwrap(), out)
}

#[test]
fn trace_export_satisfies_the_event_schema() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace = std::env::temp_dir().join("at-obs-schema-trace.json");
    let (text, _) = traced_tune(&trace);

    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let events = doc.as_array().expect("top level is an array");
    assert!(!events.is_empty());

    let mut last_ts: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    let mut span_names = Vec::new();
    let mut process_named = false;
    for event in events {
        let ph = event.get("ph").unwrap().as_str().unwrap();
        let tid = event.get("tid").unwrap().as_i64().unwrap();
        assert_eq!(event.get("pid").unwrap().as_i64(), Some(1));
        let name = event.get("name").unwrap().as_str().unwrap();
        match ph {
            "M" => {
                assert!(matches!(name, "process_name" | "thread_name"), "{name}");
                if name == "process_name" {
                    assert_eq!(
                        event.get("args").unwrap().get("name").unwrap().as_str(),
                        Some("atss")
                    );
                    process_named = true;
                }
            }
            "X" => {
                assert!(event.get("cat").unwrap().as_str().is_some());
                let ts = event.get("ts").unwrap().as_f64().unwrap();
                assert!(event.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                // Per-thread timestamps are monotone: drain sorts records
                // by start time, so each tid's subsequence is ordered.
                if let Some(prev) = last_ts.get(&tid) {
                    assert!(ts >= *prev, "tid {tid}: {ts} after {prev}");
                }
                last_ts.insert(tid, ts);
                if name == "solve-prepare" {
                    // The optimized solver's set-up reports how many
                    // constraints became bit tables.
                    let args = event.get("args").unwrap();
                    for key in ["tables", "value_constraints"] {
                        assert!(args.get(key).unwrap().as_i64().is_some(), "{key}");
                    }
                }
                span_names.push(name.to_string());
            }
            "i" => {
                assert_eq!(event.get("s").unwrap().as_str(), Some("t"));
                assert!(event.get("ts").unwrap().as_f64().is_some());
            }
            other => panic!("unknown phase {other}"),
        }
    }
    assert!(process_named);
    // The traced tune pipeline is visible end to end: construction phases
    // plus the batched-eval phases with per-worker spans.
    for expected in [
        "lower",
        "solve",
        "solve-prepare",
        "resolve",
        "fanout",
        "eval-worker",
        "merge",
    ] {
        assert!(
            span_names.iter().any(|n| n == expected),
            "missing span `{expected}` in {span_names:?}"
        );
    }

    // The tool's own linter agrees with this walk.
    let lint = trace_lint(&parsed(&["trace-lint", trace.to_str().unwrap()])).unwrap();
    assert!(lint.contains("trace OK"), "{lint}");
}

#[test]
fn metrics_envelope_satisfies_the_schema() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace = std::env::temp_dir().join("at-obs-schema-envelope.json");
    let (_, out) = traced_tune(&trace);

    let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
    let envelope = doc.get("observability").expect("embedded envelope");
    assert_eq!(
        envelope.get("schema").unwrap().as_str(),
        Some("atss.metrics.v1")
    );
    assert_eq!(envelope.get("command").unwrap().as_str(), Some("tune"));
    assert!(envelope.get("spans").unwrap().as_i64().unwrap() > 0);

    for phase in envelope.get("phases").unwrap().as_array().unwrap() {
        assert!(phase.get("cat").unwrap().as_str().is_some());
        assert!(phase.get("name").unwrap().as_str().is_some());
        assert!(phase.get("count").unwrap().as_i64().unwrap() > 0);
        assert!(phase.get("total_us").unwrap().as_f64().unwrap() >= 0.0);
        let max = phase.get("max_us").unwrap().as_f64().unwrap();
        let total = phase.get("total_us").unwrap().as_f64().unwrap();
        assert!(max <= total + 1e-9, "max {max} > total {total}");
    }

    let alloc = envelope.get("alloc").unwrap();
    assert!(
        alloc.get("installed").unwrap() == &serde_json::Value::Bool(true)
            || alloc.get("installed").unwrap() == &serde_json::Value::Bool(false)
    );
    assert!(alloc.get("peak_bytes").unwrap().as_i64().unwrap() >= 0);

    // The solver and eval counter sections both rode along, and the eval
    // section agrees with the tune DTO's own metrics object.
    let solve = envelope.get("solve").unwrap();
    assert!(solve.get("duration_ms").unwrap().as_f64().unwrap() > 0.0);
    let eval = envelope.get("eval").unwrap();
    let dto = doc.get("metrics").unwrap();
    for field in ["batches", "proposed", "measured", "cache_hits", "threads"] {
        assert_eq!(
            eval.get(field).unwrap().as_i64(),
            dto.get(field).unwrap().as_i64(),
            "{field}"
        );
    }
}
