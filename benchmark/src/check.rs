//! The checker: every answer the benchmark times is also verified, off
//! the timed path.
//!
//! An operation fails if it errors, returns a status other than 200, a
//! rung other than `full`, an answer assembled from fewer than all
//! shards, fewer than `k` results, non-finite or unsorted distances, or
//! — for sampled served requests — entity ids that differ from an
//! in-process oracle over the same sharded index.

use crate::json::{self, Val};
use emblookup_kg::EntityId;

/// In-process answers carry ascending squared distances.
pub fn valid_hits(hits: &[(EntityId, f32)], k: usize) -> bool {
    hits.len() == k
        && hits.iter().all(|(_, d)| d.is_finite())
        && hits.windows(2).all(|w| w[0].1 <= w[1].1)
}

/// Served answers carry `score = -distance`, so descending scores.
fn served_list(list: &Val<'_>, k: usize) -> Result<Vec<u32>, &'static str> {
    let items = list.as_arr().ok_or("results entry is not an array")?;
    if items.len() != k {
        return Err("fewer than k results");
    }
    let mut ids = Vec::with_capacity(k);
    let mut prev = f64::INFINITY;
    for item in items {
        let id = item
            .get("id")
            .and_then(Val::as_f64)
            .ok_or("result without id")?;
        let score = item
            .get("score")
            .and_then(Val::as_f64)
            .ok_or("result without score")?;
        if !score.is_finite() {
            return Err("non-finite score");
        }
        if score > prev {
            return Err("scores not sorted");
        }
        prev = score;
        ids.push(id as u32);
    }
    Ok(ids)
}

/// Verifies one served response and returns the entity ids of each
/// result list (one list for `/lookup`, one per query for
/// `/lookup/bulk`).
pub fn served_answer(
    status: u16,
    shards: &str,
    all_shards: &str,
    body: &str,
    lists: usize,
    k: usize,
    bulk: bool,
) -> Result<Vec<Vec<u32>>, &'static str> {
    if status != 200 {
        return Err("status is not 200");
    }
    if shards != all_shards {
        return Err("answer assembled from a subset of shards");
    }
    let doc = json::parse(body).ok_or("body is not JSON")?;
    if doc.get("rung").and_then(Val::as_str) != Some("full") {
        return Err("rung is not full");
    }
    let results = doc.get("results").ok_or("body without results")?;
    if !bulk {
        return Ok(vec![served_list(results, k)?]);
    }
    let per_query = results.as_arr().ok_or("bulk results is not an array")?;
    if per_query.len() != lists {
        return Err("bulk answered a different number of queries");
    }
    per_query.iter().map(|list| served_list(list, k)).collect()
}

/// What happened to the operations of one workload in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Served answers compared against the in-process oracle.
    pub compared: u64,
}

impl Tally {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.compared += other.compared;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(d: &[f32]) -> Vec<(EntityId, f32)> {
        d.iter()
            .enumerate()
            .map(|(i, d)| (EntityId(i as u32), *d))
            .collect()
    }

    #[test]
    fn in_process_rules() {
        assert!(valid_hits(&hits(&[0.0, 0.5, 0.5, 2.0]), 4));
        assert!(!valid_hits(&hits(&[0.0, 0.5]), 4), "fewer than k");
        assert!(!valid_hits(&hits(&[0.5, 0.1]), 2), "unsorted");
        assert!(!valid_hits(&hits(&[0.0, f32::NAN]), 2), "NaN");
        assert!(!valid_hits(&hits(&[0.0, f32::INFINITY]), 2), "inf");
    }

    const SINGLE: &str = "{\"rung\":\"full\",\"degraded\":false,\"results\":[\
        {\"id\":4,\"label\":\"a\",\"score\":-0.1},{\"id\":9,\"label\":\"b ]\",\"score\":-0.25}]}";

    #[test]
    fn served_rules() {
        assert_eq!(
            served_answer(200, "2/2", "2/2", SINGLE, 1, 2, false),
            Ok(vec![vec![4, 9]])
        );
        assert!(served_answer(504, "2/2", "2/2", SINGLE, 1, 2, false).is_err());
        assert!(served_answer(200, "1/2", "2/2", SINGLE, 1, 2, false).is_err());
        assert!(
            served_answer(200, "2/2", "2/2", SINGLE, 1, 3, false).is_err(),
            "fewer than k"
        );
        let flat = SINGLE.replace("\"full\"", "\"flat\"");
        assert!(
            served_answer(200, "2/2", "2/2", &flat, 1, 2, false).is_err(),
            "degraded rung"
        );
        let unsorted = SINGLE.replace("-0.25", "-0.05");
        assert!(served_answer(200, "2/2", "2/2", &unsorted, 1, 2, false).is_err());
        let poisoned = SINGLE.replace("-0.25", "NaN");
        assert!(served_answer(200, "2/2", "2/2", &poisoned, 1, 2, false).is_err());
        assert!(served_answer(200, "2/2", "2/2", "{\"rung\":\"full\"", 1, 2, false).is_err());
    }

    #[test]
    fn bulk_answers_are_checked_per_query() {
        let body = "{\"rung\":\"full\",\"degraded\":false,\"results\":[\
            [{\"id\":1,\"label\":\"x\",\"score\":-1}],[{\"id\":2,\"label\":\"y\",\"score\":-2}]]}";
        assert_eq!(
            served_answer(200, "2/2", "2/2", body, 2, 1, true),
            Ok(vec![vec![1], vec![2]])
        );
        assert!(
            served_answer(200, "2/2", "2/2", body, 3, 1, true).is_err(),
            "a query went missing"
        );
    }

    #[test]
    fn tallies_add_up() {
        let mut t = Tally {
            attempted: 10,
            failed: 1,
            compared: 2,
        };
        t.add(Tally {
            attempted: 5,
            failed: 0,
            compared: 5,
        });
        assert_eq!((t.attempted, t.ok(), t.failed, t.compared), (15, 14, 1, 7));
    }
}
