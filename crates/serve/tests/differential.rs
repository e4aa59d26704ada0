//! The differential oracle of the serving tier: sharded = unsharded =
//! in-process. Whatever `ServeConfig::shards` says, `/lookup` and
//! `/lookup/bulk` answer what the in-process service answers on the same
//! model — so the slow, obviously-right path (`EmbLookup` over one exact
//! index) checks the fast one (HTTP framing, JSON both ways, the scatter
//! over per-shard indexes, the top-k merge).
//!
//! `scripts/ci.sh` runs this at `EMBLOOKUP_THREADS` 1, 2 and 4: on either
//! side of the fan-out's grain, and with a bulk attempt's `search_batch`
//! both sequential and pooled.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "integration-test helpers panic to report a failure")]

use emblookup_core::{merge_topk, Compression, EmbLookup, EmbLookupConfig, EmbLookupModel};
use emblookup_kg::{generate, EntityId, KnowledgeGraph, SynthKgConfig};
use emblookup_serve::json::{self, Json};
use emblookup_serve::{client, ServeConfig, Server};
use emblookup_text::noise::NoiseInjector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

type Hits = Vec<(EntityId, f32)>;

/// Forty seeded queries: labels as stored, single-typo corruptions of
/// labels, and the two degenerate ends (empty, far longer than the
/// encoder's window).
fn queries(kg: &KnowledgeGraph) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let typos = NoiseInjector::typos();
    let mut label = || kg.label(EntityId(rng.gen_range(0..kg.num_entities() as u32))).to_string();
    let mut out: Vec<String> = (0..19).map(|_| label()).collect();
    let clean: Vec<String> = (0..19).map(|_| label()).collect();
    out.extend(clean.iter().map(|l| typos.corrupt(l, &mut rng)));
    out.push(String::new());
    out.push("q".repeat(300));
    out
}

/// One served result list as `(id, score)`.
fn results(list: &Json) -> Vec<(u32, f32)> {
    list.as_arr()
        .expect("a result list")
        .iter()
        .map(|hit| {
            let id = hit.get("id").and_then(Json::as_u64).expect("id") as u32;
            match hit.get("score") {
                // `f32`'s `Display` is its shortest round-tripping form.
                Some(Json::Num(score)) => (id, *score as f32),
                other => panic!("score is {other:?}"),
            }
        })
        .collect()
}

/// Posts `body` and returns the `results` member of a full-rung `200`
/// assembled from every shard.
fn served(conn: &mut client::Connection, path: &str, body: &str, shards: usize) -> Json {
    let resp = conn.post_json(path, body, &[]).unwrap();
    assert_eq!(resp.status, 200, "{path} {body}: {}", resp.body);
    assert_eq!(
        resp.header("x-emblookup-shards"),
        Some(format!("{shards}/{shards}").as_str()),
        "{path} {body}"
    );
    let doc = json::parse(&resp.body).expect("response body must parse");
    assert_eq!(doc.get("rung").and_then(Json::as_str), Some("full"), "{}", resp.body);
    doc.get("results").expect("results member").clone()
}

/// `got` is the served top-k, `want` the oracle's top-k (or one row
/// more) as distances: equal scores position by position, and equal ids
/// wherever a score is not tied with a neighbour's (`merge_topk` breaks
/// ties by entity id, the index's own top-k by row; an extra oracle row
/// shows a tie that crosses the cut).
fn assert_same(got: &[(u32, f32)], want: &Hits, k: usize, what: &str) {
    assert_eq!(got.len(), want.len().min(k), "{what}: result count");
    for (at, ((id, score), (want_id, dist))) in got.iter().zip(want).enumerate() {
        assert_eq!(*score, -dist, "{what}: score at {at}");
        let tied = |other: Option<&(EntityId, f32)>| other.is_some_and(|(_, d)| d == dist);
        if !tied(at.checked_sub(1).and_then(|prev| want.get(prev))) && !tied(want.get(at + 1)) {
            assert_eq!(*id, want_id.0, "{what}: id at {at}");
        }
    }
}

fn start(model: &Arc<EmbLookupModel>, kg: &KnowledgeGraph, own: Compression, shards: usize) -> Server {
    let service = EmbLookup::from_model(Arc::clone(model), kg, own);
    let config = ServeConfig { workers: 2, shards, ..ServeConfig::default() };
    Server::start(service, kg, config).expect("server must start")
}

#[test]
fn served_answers_equal_the_in_process_service_at_every_shard_count() {
    let synth = generate(SynthKgConfig::tiny(77));
    let kg = &synth.kg;
    // The tiny configuration is flat, so every shard is exact whatever
    // its size and any partition has one right answer.
    let trained = EmbLookup::train_on(kg, EmbLookupConfig::tiny(77));
    assert_eq!(trained.model().config().compression, Compression::None);
    let model = trained.model_arc();
    let queries = queries(kg);
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let quoted: Vec<String> =
        queries.iter().map(|q| format!("\"{}\"", emblookup_obs::escape_json(q))).collect();

    let check = |server: &Server, shards: usize, oracle: &EmbLookup, exact: bool| {
        let mut conn = client::Connection::open(server.addr()).unwrap();
        for k in [1usize, 10, 100] {
            // One row past the cut shows `assert_same` a tie across it;
            // the same index is asked for exactly what the server asks.
            let ask = if exact { k } else { k + 1 };
            let singles: Vec<Hits> =
                refs.iter().map(|q| oracle.lookup_with_distances(q, ask)).collect();
            let batch = oracle.bulk_lookup(&refs, ask);
            assert_eq!(singles, batch, "the oracle's two entry points disagree at k={k}");

            let body = format!("{{\"queries\":[{}],\"k\":{k}}}", quoted.join(","));
            let bulk = served(&mut conn, "/lookup/bulk", &body, shards);
            let bulk = bulk.as_arr().expect("one list per query");
            assert_eq!(bulk.len(), queries.len());
            for (qi, want) in singles.iter().enumerate() {
                let what = format!("shards={shards} k={k} query {qi} {:?}", queries[qi]);
                let body = format!("{{\"q\":{},\"k\":{k}}}", quoted[qi]);
                let single = results(&served(&mut conn, "/lookup", &body, shards));
                assert_same(&single, want, k, &what);
                assert_eq!(results(&bulk[qi]), single, "{what}: bulk vs single");
                if exact {
                    // The same hits, in the one order every shard count
                    // serves: the merge's (distance, entity id).
                    let merged: Vec<(u32, f32)> = merge_topk(std::slice::from_ref(want), k)
                        .into_iter()
                        .map(|(id, dist)| (id.0, -dist))
                        .collect();
                    assert_eq!(single, merged, "{what}: the same index must answer the same hits");
                }
            }
        }
    };

    let flat = EmbLookup::from_model(Arc::clone(&model), kg, Compression::None);
    for shards in [1usize, 2, 3, 5] {
        check(&start(&model, kg, Compression::None, shards), shards, &flat, false);
    }

    // At one shard the caller's own index serves, whatever it is: a PQ
    // index (lossy, full of tied distances) answers over HTTP exactly
    // the hits it answers in process — it is the same index — with each
    // run of tied distances in entity-id order where the index's own
    // top-k leaves it in heap order.
    let pq = Compression::Pq { m: 4, ks: 16 };
    let oracle = EmbLookup::from_model(Arc::clone(&model), kg, pq);
    check(&start(&model, kg, pq, 1), 1, &oracle, true);
}
