//! The load generators: closed-loop query clients, a closed-loop churn
//! writer, and the two alternating in fixed blocks. Each records what
//! the end-to-end metrics need.

use crate::measure::{ms, Tally};
use crate::setup::{ChurnGen, QueryPool, K};
use obs_live::{ShardedLiveService, ShardedReader};
use obs_model::CorpusDelta;
use obs_search::SearchHit;
use obs_synth::{Rng64, World};
use std::time::{Duration, Instant};

/// Closed-loop query clients (the host has two cores).
pub const QUERY_CLIENTS: usize = 2;
/// Block lengths when commits and queries alternate: the host's speed
/// drifts over tens of seconds, so both kinds of sample are spread over
/// the whole run rather than taken one after the other.
pub const COMMIT_BLOCK: Duration = Duration::from_millis(1_500);
pub const QUERY_BLOCK: Duration = Duration::from_millis(1_500);
/// Every n-th timed query's result is kept for the unsharded oracle.
const SAMPLE_EVERY: usize = 64;

/// What a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub query_ms: Vec<f64>,
    pub query_wall_s: f64,
    pub commit_ms: Vec<f64>,
    pub deltas_acked: u64,
    /// The committed batches, in commit order, for the oracles.
    pub committed: Vec<Vec<CorpusDelta>>,
    /// `(pool position, hits)` kept for the unsharded oracle.
    pub samples: Vec<(usize, Vec<SearchHit>)>,
    pub tally: Tally,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.query_ms.extend(other.query_ms);
        self.query_wall_s = self.query_wall_s.max(other.query_wall_s);
        self.commit_ms.extend(other.commit_ms);
        self.deltas_acked += other.deltas_acked;
        self.committed.extend(other.committed);
        self.samples.extend(other.samples);
        self.tally.absorb(other.tally);
    }
}

/// `QUERY_CLIENTS` closed-loop clients querying uniformly over `pool`
/// until `deadline` (or `per_client` queries each, whichever comes
/// first).
pub fn closed_queries(
    reader: &ShardedReader,
    pool: &QueryPool,
    rng: &Rng64,
    deadline: Instant,
    per_client: usize,
) -> Phase {
    let start = Instant::now();
    let mut phase = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..QUERY_CLIENTS)
            .map(|c| {
                let reader = reader.clone();
                let mut rng = rng.fork(c as u64);
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    while phase.query_ms.len() < per_client && Instant::now() < deadline {
                        let pick = pool.uniform_pick(&mut rng);
                        let t0 = Instant::now();
                        let hits = std::hint::black_box(reader.query(&pool.queries[pick], K));
                        phase.query_ms.push(ms(t0.elapsed()));
                        phase.tally.check(true, String::new);
                        if phase.query_ms.len() % SAMPLE_EVERY == 1 {
                            phase.samples.push((pick, hits));
                        }
                    }
                    phase
                })
            })
            .collect();
        let mut merged = Phase::default();
        for h in handles {
            merged.merge(h.join().expect("query client panicked"));
        }
        merged
    });
    phase.query_wall_s = start.elapsed().as_secs_f64();
    phase
}

/// One closed-loop writer committing churn batches until `deadline`
/// (or `max_commits`, whichever comes first).
pub fn closed_commits(
    service: &mut ShardedLiveService,
    world: &World,
    churn: &mut ChurnGen,
    deadline: Instant,
    max_commits: usize,
) -> Phase {
    let mut phase = Phase::default();
    while phase.commit_ms.len() < max_commits && Instant::now() < deadline {
        let batch = churn.next_batch(world);
        let t0 = Instant::now();
        let outcome = service.ingest_batch(&batch);
        let took = ms(t0.elapsed());
        phase.tally.check(outcome.is_ok(), || {
            format!("churn commit failed: {outcome:?}")
        });
        if outcome.is_ok() {
            phase.commit_ms.push(took);
            phase.deltas_acked += batch.len() as u64;
            phase.committed.push(batch);
        }
    }
    phase
}

/// Alternates closed-loop churn commits with closed-loop queries on
/// the just-published state for `run`: cycles of about `COMMIT_BLOCK`
/// of commits then `QUERY_BLOCK` of queries, at least one cycle. Query
/// results are not kept for the unsharded oracle, whose reference state
/// is the bulk load alone.
pub fn alternating(
    service: &mut ShardedLiveService,
    world: &World,
    churn: &mut ChurnGen,
    pool: &QueryPool,
    rng: &Rng64,
    run: Duration,
) -> Phase {
    let nominal = (COMMIT_BLOCK + QUERY_BLOCK).as_secs_f64();
    let cycles = (run.as_secs_f64() / nominal).round().max(1.0) as u32;
    let cycle = run / cycles;
    let commits = cycle.mul_f64(COMMIT_BLOCK.as_secs_f64() / nominal);
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut query_wall_s = 0.0;
    for i in 0..cycles {
        let commits_until = start + cycle * i + commits;
        phase.merge(closed_commits(
            service,
            world,
            churn,
            commits_until,
            usize::MAX,
        ));
        let mut queries = closed_queries(
            &service.reader(),
            pool,
            &rng.fork(u64::from(i)),
            start + cycle * (i + 1),
            usize::MAX,
        );
        queries.samples.clear();
        query_wall_s += queries.query_wall_s;
        phase.merge(queries);
    }
    phase.query_wall_s = query_wall_s;
    phase
}
