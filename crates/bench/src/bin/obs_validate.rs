//! obs_validate — CI checker for observability artefacts.
//!
//! Not a harness (it reproduces nothing from the paper, so it is not in
//! [`hxbench::HARNESSES`]): it loads the trace + flight dump a
//! `T2HX_OBS=1` harness run left behind and verifies the causal span
//! machinery end to end:
//!
//! Every harness gets the generic checks:
//!
//! * every complete (`"X"`) event carries a unique nonzero `args.span`,
//! * every `args.parent` resolves to an emitted span whose interval
//!   time-contains the child (begin/end nesting is well-formed),
//! * plane ids are causally consistent: a span stamped with a plane id
//!   never hangs under a parent stamped with a *different* one,
//! * every track pid that holds events carries a `process_name`,
//! * the harness's flight dump (`<harness>.flightdump.json`) parses and
//!   its ring retained events,
//! * every line of `<harness>.metrics.jsonl` parses, lines are sorted by
//!   name, each is a `counter`, `gauge` or `sketch`, and each sketch holds
//!   `count >= 1` samples with `min <= p50 <= p95 <= p99 <= p999 <= max`
//!   and bucket counts that sum to `count`.
//!
//! The harnesses that tell a story get its checks on top:
//!
//! * for the campaign harnesses (`fault_campaign`, `multiplane_campaign`,
//!   `routing_tournament`) at least one complete causal chain
//!   `step → fail_link → pathdb_patch` plus `repath`/`resolve` siblings,
//!   a `step → recover_link` recovery chain, and a flight ring tail that
//!   holds the end of a `step` span,
//! * for the `multiplane_campaign` harness every `step` span carries a
//!   plane id and at least one plane-tagged `failover` span exists (the
//!   rail failover actually ran),
//! * for the `routing_tournament` harness every fail/recover span names
//!   its engine, at least four distinct engines repaired faults, and
//!   FT-HyperX healed with its own incremental rule (`repair="engine"`) —
//!   never by falling back to a full resweep,
//! * for the `hxd` harness every `query` span nests under a `serve` root,
//!   carries a valid epoch stamp and a kind tag, at least one query hit
//!   the per-epoch result cache, churn spans that hang under no `query`
//!   (a what-if forks its own) prove the writer ran concurrently, and the
//!   flight ring tail holds the end of a `query` span.
//!
//! Usage: `obs_validate [obs_dir] [harness_name]` — both default to
//! [`hxbench::knobs::RunConfig::obs_dir`] and `fault_campaign`. Exits
//! nonzero with a reason on the first violated invariant.

use hxobs::Json;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::exit;

/// The harnesses whose trace tells the campaign story: seeded churn steps,
/// each a `step → fail_link → pathdb_patch` (or `recover_link`) tree.
const CAMPAIGNS: &[&str] = &[
    "fault_campaign",
    "multiplane_campaign",
    "routing_tournament",
];

/// Nesting slack in microseconds: parent and child timestamps come from
/// the same monotonic clock, but `Instant`-to-f64 rounding can land a
/// child's end a hair past its parent's.
const SLACK_US: f64 = 0.5;

fn fail(msg: &str) -> ! {
    eprintln!("obs_validate: FAIL: {msg}");
    exit(1);
}

/// One emitted span, flattened from its Chrome trace event.
struct SpanEv {
    name: String,
    ts: f64,
    dur: f64,
    parent: u64,
    kind: Option<String>,
    plane: Option<u64>,
    engine: Option<String>,
    repair: Option<String>,
    epoch: Option<u64>,
    cached: Option<bool>,
}

fn load(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{}: bad JSON: {e}", path.display())))
}

fn validate_trace(path: &PathBuf, harness: &str) -> HashMap<u64, SpanEv> {
    let doc = load(path);
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{}: no traceEvents array", path.display())));
    let pid = |ev: &Json| ev.get("pid").and_then(Json::as_num).unwrap_or(f64::NAN) as u64;
    let named: HashSet<u64> = events
        .iter()
        .filter(|ev| ev.get("name").and_then(Json::as_str) == Some("process_name"))
        .map(pid)
        .collect();
    let unnamed = events
        .iter()
        .filter(|ev| ev.get("ph").and_then(Json::as_str) != Some("M"))
        .map(pid)
        .find(|p| !named.contains(p));
    if let Some(p) = unnamed {
        fail(&format!(
            "{}: track pid {p} holds events but has no process_name",
            path.display()
        ));
    }
    let mut spans: HashMap<u64, SpanEv> = HashMap::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail("X event without a name"))
            .to_string();
        let args = ev.get("args");
        let span_id = args
            .and_then(|a| a.get("span"))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64;
        if span_id == 0 {
            // A DES span on simulated time, recorded straight through the
            // tracer: not part of the wall-clock causal tree.
            continue;
        }
        let sp = SpanEv {
            name,
            ts: ev.get("ts").and_then(Json::as_num).unwrap_or(f64::NAN),
            dur: ev.get("dur").and_then(Json::as_num).unwrap_or(f64::NAN),
            parent: args
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_num)
                .unwrap_or(0.0) as u64,
            kind: args
                .and_then(|a| a.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_string),
            plane: args
                .and_then(|a| a.get("plane"))
                .and_then(Json::as_num)
                .map(|v| v as u64),
            engine: args
                .and_then(|a| a.get("engine"))
                .and_then(Json::as_str)
                .map(str::to_string),
            repair: args
                .and_then(|a| a.get("repair"))
                .and_then(Json::as_str)
                .map(str::to_string),
            epoch: args
                .and_then(|a| a.get("epoch"))
                .and_then(Json::as_num)
                .map(|v| v as u64),
            cached: args.and_then(|a| a.get("cached")).and_then(|v| match v {
                Json::Bool(b) => Some(*b),
                _ => None,
            }),
        };
        if !(sp.ts.is_finite() && sp.dur.is_finite() && sp.dur >= 0.0) {
            fail(&format!(
                "span {:?}: bad ts/dur {}/{}",
                sp.name, sp.ts, sp.dur
            ));
        }
        if spans.insert(span_id, sp).is_some() {
            fail(&format!("duplicate span id {span_id}"));
        }
    }
    if spans.is_empty() {
        fail(&format!("{}: no spans at all", path.display()));
    }

    // Nesting: every parent link resolves, and the parent's interval
    // contains the child's (modulo clock-rounding slack).
    for (id, sp) in &spans {
        if sp.parent == 0 {
            continue;
        }
        let Some(p) = spans.get(&sp.parent) else {
            fail(&format!(
                "span {id} ({:?}) has dangling parent {}",
                sp.name, sp.parent
            ));
        };
        if sp.ts + SLACK_US < p.ts || sp.ts + sp.dur > p.ts + p.dur + SLACK_US {
            fail(&format!(
                "span {id} ({:?}) [{:.3}, {:.3}] escapes parent {:?} [{:.3}, {:.3}]",
                sp.name,
                sp.ts,
                sp.ts + sp.dur,
                p.name,
                p.ts,
                p.ts + p.dur
            ));
        }
    }

    // The causal chains a campaign must have told as one tree each.
    if CAMPAIGNS.contains(&harness) {
        let children_of = |pid: u64, name: &str| -> Vec<u64> {
            spans
                .iter()
                .filter(|(_, s)| s.parent == pid && s.name == name)
                .map(|(&id, _)| id)
                .collect()
        };
        let mut fail_chain = false;
        let mut recover_chain = false;
        for (&id, sp) in &spans {
            if sp.name != "step" {
                continue;
            }
            match sp.kind.as_deref() {
                Some("fail") => {
                    let complete = children_of(id, "fail_link")
                        .iter()
                        .any(|&f| !children_of(f, "pathdb_patch").is_empty())
                        && !children_of(id, "repath").is_empty()
                        && !children_of(id, "resolve").is_empty();
                    fail_chain |= complete;
                }
                Some("recover") => {
                    recover_chain |= !children_of(id, "recover_link").is_empty();
                }
                other => fail(&format!("campaign step span {id} has kind {other:?}")),
            }
        }
        if !fail_chain {
            fail("no complete step→fail_link→pathdb_patch chain (with repath/resolve) in trace");
        }
        if !recover_chain {
            fail("no step→recover_link chain in trace");
        }
    }

    // Plane causality: a plane-stamped span never hangs under a parent
    // stamped with a different plane (multi-plane events patch exactly one
    // shard, so whole causal trees live on one plane).
    for (id, sp) in &spans {
        if sp.parent == 0 {
            continue;
        }
        let (Some(cp), Some(pp)) = (sp.plane, spans.get(&sp.parent).and_then(|p| p.plane)) else {
            continue;
        };
        if cp != pp {
            fail(&format!(
                "span {id} ({:?}) on plane {cp} hangs under a parent on plane {pp}",
                sp.name
            ));
        }
    }

    // Multi-plane harnesses must tell a plane-tagged story: every churn
    // step names its plane, and the rail-failover path actually ran.
    if harness == "multiplane_campaign" {
        let mut step_planes = std::collections::BTreeSet::new();
        let mut failover = false;
        for (id, sp) in &spans {
            if sp.name == "step" {
                match sp.plane {
                    Some(p) => {
                        step_planes.insert(p);
                    }
                    None => fail(&format!("multi-plane step span {id} carries no plane id")),
                }
            }
            failover |= sp.name == "failover" && sp.plane.is_some();
        }
        if step_planes.is_empty() {
            fail("no plane-tagged step spans in multi-plane trace");
        }
        if !failover {
            fail("no plane-tagged failover span in multi-plane trace (rail failover never ran)");
        }
    }

    // The tournament must tell an engine-tagged story: several distinct
    // engines repaired faults in one trace, and FT-HyperX healed at least
    // one of its failures with its own incremental rule — never by falling
    // back to a full resweep.
    if harness == "routing_tournament" {
        let mut engines = std::collections::BTreeSet::new();
        let mut ft_engine_repair = false;
        for (id, sp) in &spans {
            if sp.name != "fail_link" && sp.name != "recover_link" {
                continue;
            }
            let Some(e) = sp.engine.as_deref() else {
                fail(&format!("{} span {id} carries no engine tag", sp.name));
            };
            engines.insert(e.to_string());
            if e == "ft-hyperx" {
                match sp.repair.as_deref() {
                    Some("engine") => ft_engine_repair = true,
                    Some("resweep") => fail(&format!(
                        "ft-hyperx {} span {id} fell back to a full resweep",
                        sp.name
                    )),
                    _ => {}
                }
            }
        }
        if engines.len() < 4 {
            fail(&format!(
                "tournament trace shows only {} engine tags {engines:?} (need >= 4)",
                engines.len()
            ));
        }
        if !ft_engine_repair {
            fail("no ft-hyperx repair with its own incremental rule (repair=\"engine\") in trace");
        }
    }

    // The hxd daemon must tell the read-side story: every query span hangs
    // under a serve loop root and is stamped with the epoch it answered
    // against, churn really ran concurrently (fail/recover trees in the
    // same trace that no what-if query forked), and the per-epoch result
    // cache actually hit.
    if harness == "hxd" {
        let (mut queries, mut cached_hits, mut churn) = (0u64, 0u64, false);
        for (id, sp) in &spans {
            churn |= (sp.name == "fail_link" || sp.name == "recover_link")
                && spans.get(&sp.parent).map(|p| p.name.as_str()) != Some("query");
            if sp.name != "query" {
                continue;
            }
            queries += 1;
            match spans.get(&sp.parent) {
                Some(p) if p.name == "serve" => {}
                Some(p) => fail(&format!(
                    "query span {id} hangs under {:?}, not a serve root",
                    p.name
                )),
                None => fail(&format!("query span {id} has no serve parent")),
            }
            match sp.epoch {
                Some(e) if e >= 1 => {}
                _ => fail(&format!("query span {id} carries no valid epoch stamp")),
            }
            if sp.kind.is_none() {
                fail(&format!("query span {id} carries no kind tag"));
            }
            cached_hits += u64::from(sp.cached == Some(true));
        }
        if queries == 0 {
            fail("hxd trace holds no query spans");
        }
        if cached_hits == 0 {
            fail("no cached query span in hxd trace (the result cache never hit)");
        }
        if !churn {
            fail("no fail_link/recover_link span outside a query in hxd trace (churn never ran)");
        }
    }
    spans
}

fn validate_flight(path: &PathBuf, harness: &str) {
    let doc = load(path);
    let recorded = doc
        .get("recorded")
        .and_then(Json::as_num)
        .unwrap_or_else(|| fail(&format!("{}: no recorded count", path.display())));
    if recorded < 1.0 {
        fail("flight ring recorded no events");
    }
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{}: no events array", path.display())));
    if events.is_empty() {
        fail("flight dump events array is empty");
    }
    const KINDS: &[&str] = &["span_begin", "span_end", "counter", "gauge", "instant"];
    // The ring tail must hold the end of the harness's own story: a
    // campaign step for the churn harnesses, a served query for hxd.
    let tail_name = match harness {
        "hxd" => Some("query"),
        h if CAMPAIGNS.contains(&h) => Some("step"),
        _ => None,
    };
    let mut tail_end = false;
    for ev in events {
        let kind = ev
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail("flight event without kind"));
        if !KINDS.contains(&kind) {
            fail(&format!("flight event with unknown kind {kind:?}"));
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail("flight event without name"));
        if ev.get("ts_us").and_then(Json::as_num).is_none() {
            fail(&format!("flight event {name:?} without ts_us"));
        }
        tail_end |= kind == "span_end" && Some(name) == tail_name;
    }
    if let (Some(tail_name), false) = (tail_name, tail_end) {
        fail(&format!(
            "flight ring tail holds no span_end record for a {tail_name:?} span"
        ));
    }
}

/// Checks the metrics export line by line; returns the number of lines.
fn validate_metrics(path: &PathBuf) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let mut prev = String::new();
    for (i, line) in text.lines().enumerate() {
        let at = format!("{}:{}", path.display(), i + 1);
        let j = Json::parse(line).unwrap_or_else(|e| fail(&format!("{at}: bad JSON: {e}")));
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("{at}: no name")));
        if name < prev.as_str() {
            fail(&format!("{at}: {name:?} sorts before {prev:?}"));
        }
        prev = name.to_string();
        match j.get("type").and_then(Json::as_str) {
            Some("counter" | "gauge") => {}
            Some("sketch") => {
                let num = |k: &str| {
                    j.get(k)
                        .and_then(Json::as_num)
                        .unwrap_or_else(|| fail(&format!("{at}: sketch {name:?} has no {k}")))
                };
                let count = num("count");
                if count < 1.0 {
                    fail(&format!("{at}: sketch {name:?} is empty"));
                }
                let order = ["min", "p50", "p95", "p99", "p999", "max"].map(num);
                if order.windows(2).any(|w| w[0] > w[1]) {
                    fail(&format!(
                        "{at}: sketch {name:?} min/p50/p95/p99/p999/max {order:?} out of order"
                    ));
                }
                let in_buckets: f64 = j
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .unwrap_or_else(|| fail(&format!("{at}: sketch {name:?} has no buckets")))
                    .iter()
                    .map(|b| b.get("count").and_then(Json::as_num).unwrap_or(f64::NAN))
                    .sum();
                if in_buckets != count {
                    fail(&format!(
                        "{at}: sketch {name:?} buckets hold {in_buckets} of {count} samples"
                    ));
                }
            }
            other => fail(&format!("{at}: unknown metric type {other:?}")),
        }
    }
    text.lines().count()
}

fn main() {
    let cfg = hxbench::knobs::config();
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| cfg.obs_dir());
    let harness = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "fault_campaign".into());

    let trace = dir.join(format!("{harness}.trace.json"));
    let flight = hxobs::flight::dump_path(&dir, &harness);
    let metrics = dir.join(format!("{harness}.metrics.jsonl"));
    let spans = validate_trace(&trace, &harness);
    validate_flight(&flight, &harness);
    let lines = validate_metrics(&metrics);
    println!(
        "obs_validate: OK — {} spans nested cleanly in {}, flight dump {} valid, {lines} metric lines in {} valid",
        spans.len(),
        trace.display(),
        flight.display(),
        metrics.display()
    );
}
