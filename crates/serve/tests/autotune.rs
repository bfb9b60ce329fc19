//! The daemon's speculation choice, checked in process and exactly.
//!
//! Five kernel families run once under every fixed spec, then as one
//! interleaved trace that leaves the spec to the daemon. Requests are
//! wire lines, parsed by [`Request::parse`] and served by
//! [`ServeEngine::handle`] as a worker serves them, so the replies are
//! the ones a client reads, without a socket in between.
//!
//! The daemon judges speculation as the paper does (§3.3.2), in
//! simulated Table 1 cycles, and cycles are a pure function of
//! `(kernel, spec, vl, invocations)`: every assertion here is exact.

use flexvec_serve::{err_response, ok_response, Json, Request, ServeEngine};

/// The fixed specs every autotuned reply is measured against. `ff`
/// pins first-faulting (the compiler's `Auto`); the rest pin RTM at a
/// fixed tile. No single entry is best for every family below.
const PINS: [&str; 5] = ["ff", "rtm:16", "rtm:64", "rtm:256", "rtm:1024"];

/// Invocations per request.
const INVOCATIONS: u64 = 3;

/// Requests a kernel may spend exploring its candidates: the length of
/// the daemon's ladder (`Auto` plus four RTM tiles).
const EXPLORE_RUNS: u64 = 5;

/// Requests in the autotuned trace: 40 rounds of [`TRACE`], so every
/// family replays its choice dozens of times and the busiest one is
/// audited.
const REQUESTS: usize = 240;

/// The interleaving of the autotuned trace, as indices into
/// [`families`].
const TRACE: [usize; 6] = [0, 1, 2, 2, 3, 4];

/// A store between a speculative load and its conditional update sits
/// inside the VPL, so first-faulting cannot vectorize this shape and a
/// pinned `ff` runs it scalar. RTM buffers the stores transactionally
/// and commits clean at any tile.
const RTM_WIN: &str = "\
// Conditional-update scan with a store inside the speculative region.
kernel rtm_win;

var i = 0;
var t = 0;
var u = 0;
var best = 1048576;
array a[4096] = seed 7;
array aux[4096] = seed 9;
array out[4096];
live_out best;

for (i = 0; i < 4096; i++) {
  t = a[i] * 3 + i;
  if (t < best) {
    u = aux[t & 4095];
    out[i] = u;
    if (u < best) {
      best = u;
    }
  }
}
";

/// An early-exit scan whose exit chunk also runs past the array, so the
/// speculative tail load faults on every invocation. First-faulting
/// masks the fault and falls back for one chunk; a fixed RTM tile
/// aborts the whole enclosing transaction and reruns it scalar.
const FAULT_TAIL: &str = "\
// Early-exit scan with a faulting speculative tail.
kernel fault_tail;

var i = 0;
var t = 0;
var s = 0;
var found = -1;
array a[2030] = seed 11;
live_out s;

for (i = 0; i < 2100; i++) {
  t = a[i];
  s = s + t;
  if (i > 2020) {
    found = i;
    break;
  }
}
";

/// A non-speculative scatter over a bin range wide enough that
/// intra-chunk conflicts are rare. `Auto` needs no speculation and
/// vectorizes clean; a pinned RTM tile wraps the same work in
/// transactions.
const STORE_HEAVY: &str = "\
// Low-conflict histogram: every iteration scatters into a wide bin range.
kernel store_heavy;

var i = 0;
array idx[4096] = seed 7;
array bins[1024];

for (i = 0; i < 4096; i++) {
  bins[idx[i] % 1024] = bins[idx[i] % 1024] + 1;
}
";

/// The shape of [`RTM_WIN`], but the guard almost always holds and
/// every taken iteration stores `u` into `stores` arrays. A tile that
/// writes more distinct elements than the transaction's 4096-element
/// write set aborts and reruns scalar, so the best tile is the largest
/// that fits: with 20 stores a 256-iteration tile writes 5120 elements
/// and `rtm:64` wins; with 70 stores a 64-iteration tile writes 4480
/// and `rtm:16` wins.
fn wide_stores(stores: usize) -> String {
    let mut src = format!(
        "// Conditional-update scan storing into {stores} arrays per iteration.\n\
         kernel wide_stores_{stores};\n\n\
         var i = 0;\nvar t = 0;\nvar u = 0;\nvar best = 1048576;\n\
         array a[512] = seed 7;\narray aux[512] = seed 9;\n"
    );
    for k in 0..stores {
        src.push_str(&format!("array o{k}[512];\n"));
    }
    src.push_str(
        "live_out best;\n\n\
         for (i = 0; i < 512; i++) {\n  t = a[i] * 3 + i;\n  if (t < best + 1000000) {\n    \
         u = aux[t & 511];\n",
    );
    for k in 0..stores {
        src.push_str(&format!("    o{k}[i] = u;\n"));
    }
    src.push_str("    if (u < best) {\n      best = u;\n    }\n  }\n}\n");
    src
}

/// One kernel family and what the daemon must settle on for it.
struct Family {
    name: &'static str,
    source: String,
    /// The spec every implicit reply runs once exploring is done.
    settles_on: &'static str,
    /// That spec's vector cycles at [`INVOCATIONS`].
    vector_cycles: u64,
}

/// The families in [`TRACE`] index order.
fn families() -> [Family; 5] {
    let family = |name, source: &str, settles_on, vector_cycles| Family {
        name,
        source: source.to_owned(),
        settles_on,
        vector_cycles,
    };
    [
        family("rtm_win", RTM_WIN, "rtm:1024", 59_915),
        family("fault_tail", FAULT_TAIL, "auto", 26_642),
        family("store_heavy", STORE_HEAVY, "auto", 102_519),
        family("wide_stores_20", &wide_stores(20), "rtm:64", 9_384),
        family("wide_stores_70", &wide_stores(70), "rtm:16", 17_722),
    ]
}

/// Serves one wire line and answers it as the daemon's worker does.
fn send(engine: &ServeEngine, request: &Json) -> Json {
    match Request::parse(&request.to_string()) {
        Ok(req) => match engine.handle(&req, None) {
            Ok(out) => ok_response(req.id, out.fields),
            Err(e) => err_response(req.id, &e),
        },
        Err((id, e)) => err_response(id, &e),
    }
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn str_field<'a>(reply: &'a Json, name: &str) -> &'a str {
    reply.get(name).and_then(Json::as_str).unwrap_or("")
}

fn u64_field(reply: &Json, name: &str) -> u64 {
    reply
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no `{name}` in {reply}"))
}

/// Registers a kernel on `engine`, returning its hash.
fn register(engine: &ServeEngine, source: &str) -> String {
    let reply = send(
        engine,
        &Json::obj([
            ("op", Json::from("compile")),
            ("source", Json::from(source)),
        ]),
    );
    assert!(ok(&reply), "{reply}");
    str_field(&reply, "hash").to_owned()
}

/// Registers every family on `engine`, returning their hashes in order.
fn register_all(engine: &ServeEngine, families: &[Family]) -> Vec<String> {
    families
        .iter()
        .map(|f| register(engine, &f.source))
        .collect()
}

/// One `run` of a registered kernel; `spec` pins it, `None` leaves the
/// choice to the daemon.
fn run(engine: &ServeEngine, hash: &str, spec: Option<&str>) -> Json {
    let mut fields = vec![
        ("op", Json::from("run")),
        ("hash", Json::from(hash)),
        ("invocations", Json::from(INVOCATIONS)),
    ];
    fields.extend(spec.map(|spec| ("spec", Json::from(spec))));
    send(engine, &Json::obj(fields))
}

fn stat(engine: &ServeEngine, name: &str) -> u64 {
    u64_field(
        &send(engine, &Json::obj([("op", Json::from("stats"))])),
        name,
    )
}

#[test]
fn implicit_specs_settle_on_the_fewest_cycles_of_any_pin() {
    let families = families();

    // Vector cycles of every family under every pin. Pinned requests
    // bypass the choice, so none is counted.
    let engine = ServeEngine::new(0);
    let hashes = register_all(&engine, &families);
    let pinned: Vec<[u64; PINS.len()]> = families
        .iter()
        .zip(&hashes)
        .map(|(family, hash)| {
            PINS.map(|pin| {
                let reply = run(&engine, hash, Some(pin));
                let want = if pin == "ff" { "auto" } else { pin };
                assert!(ok(&reply), "`{pin}` run of {}: {reply}", family.name);
                assert_eq!(str_field(&reply, "spec"), want, "{}", family.name);
                u64_field(&reply, "vector_cycles")
            })
        })
        .collect();
    assert_eq!(stat(&engine, "autotune_respecialize_total"), 0);

    // A fresh engine serves the interleaved trace with no spec on the
    // wire. Once a family has explored, each of its replies runs the
    // fewest vector cycles of any pin.
    let engine = ServeEngine::new(0);
    let hashes = register_all(&engine, &families);
    let mut seen = vec![0u64; families.len()];
    let mut compiles_once_settled = None;
    for i in 0..REQUESTS {
        let f = TRACE[i % TRACE.len()];
        let family = &families[f];
        let reply = run(&engine, &hashes[f], None);
        seen[f] += 1;
        assert!(ok(&reply), "{} reply {}: {reply}", family.name, seen[f]);
        if seen[f] > EXPLORE_RUNS {
            let fewest = *pinned[f].iter().min().expect("pins");
            assert_eq!(
                u64_field(&reply, "vector_cycles"),
                fewest,
                "{} reply {} ran `{}`; pinned cycles {:?} for {PINS:?}",
                family.name,
                seen[f],
                str_field(&reply, "spec"),
                pinned[f],
            );
            assert_eq!(
                str_field(&reply, "spec"),
                family.settles_on,
                "{}",
                family.name
            );
            assert_eq!(
                u64_field(&reply, "vector_cycles"),
                family.vector_cycles,
                "{}",
                family.name
            );
        }
        // Traffic that names a settled kernel by hash compiles nothing:
        // every plan it runs is already in the compile cache.
        if seen.iter().all(|&n| n > EXPLORE_RUNS) {
            let compiles = engine.cache().compiles();
            assert_eq!(
                *compiles_once_settled.get_or_insert(compiles),
                compiles,
                "request {i} compiled"
            );
        }
    }
    assert_eq!(
        stat(&engine, "autotune_respecialize_total"),
        3,
        "choices other than auto: rtm_win, wide_stores_20 and wide_stores_70"
    );

    // A tie goes to the earlier candidate. At 256 iterations a tile of
    // 1024 and one of 256 each cover the loop in one transaction, so
    // the two simulate the same cycles.
    let engine = ServeEngine::new(0);
    let hash = register(
        &engine,
        &RTM_WIN.replace("4096", "256").replace("4095", "255"),
    );
    let cycles = |spec| u64_field(&run(&engine, &hash, Some(spec)), "vector_cycles");
    assert_eq!(cycles("rtm:1024"), cycles("rtm:256"), "a tie");
    let settled = (0..=EXPLORE_RUNS)
        .map(|_| run(&engine, &hash, None))
        .last()
        .expect("runs");
    assert_eq!(str_field(&settled, "spec"), "rtm:1024", "{settled}");

    // An explicit engine is honored verbatim.
    let engine = ServeEngine::new(0);
    let reply = send(
        &engine,
        &Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(STORE_HEAVY)),
            ("engine", Json::from("tree")),
        ]),
    );
    assert_eq!(str_field(&reply, "engine"), "tree-walking", "{reply}");
}
