//! The evaluation worker pool.
//!
//! Connection handlers enqueue one [`Job`] per `query` request; a fixed
//! pool of worker threads takes jobs off the queue one at a time and
//! answers each with a single [`Oracle::observe_batch_keyed`] call. A
//! worker never waits for more work before evaluating, so a request is
//! answered as soon as a worker is free.
//!
//! The pool bounds evaluation concurrency (the worker count) and queued
//! samples (`max_inflight`, backpressure). Which worker answers a job,
//! and in what order, does not affect results: every sample carries its
//! own [`QueryKey`] and `observe_batch_keyed` draws each sample's noise
//! from its key's stream — the property the solo-vs-interleaved
//! integration test pins down. Repeated jobs for one victim still share
//! its prepared evaluation handle through the oracle's cache.
//!
//! With live metrics, each worker records into its own shard: queue
//! wait, evaluation time and queue depth explicitly, and — because the
//! shard is installed as the ambient `xbar-obs` scope of the job's
//! victim while it evaluates — the library's own counters
//! (`oracle.query`, `xbar.mvm_batch`, `xbar.power_read`, ...).
//!
//! Shutdown is by sender-drop: workers block on the queue until every
//! [`JobQueue`] clone is gone, then drain what remains and exit —
//! in-flight jobs are always answered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use xbar_core::oracle::{Observation, Oracle, QueryKey};
use xbar_obs::names;
use xbar_obs::MetricsShard;

use crate::metrics::ServeMetrics;

/// One evaluation job: a contiguous slice of one session's reserved
/// queries, plus the channel its observations go back on.
pub struct Job {
    /// The deployed victim the queries target.
    pub oracle: Arc<Oracle>,
    /// Registry name of the victim (metrics are attributed to it).
    pub victim: String,
    /// Query inputs, one per sample.
    pub inputs: Vec<Vec<f64>>,
    /// Per-sample noise keys, parallel to `inputs`.
    pub keys: Vec<QueryKey>,
    /// Where the observations (or an evaluation error) are delivered.
    pub reply: mpsc::Sender<std::result::Result<Vec<Observation>, String>>,
}

/// A [`Job`] plus the instant it entered the queue and the queue depth
/// (in samples) it joined, so the dequeuing worker can attribute both
/// to the job's victim.
struct QueuedJob {
    job: Job,
    enqueued: Instant,
    depth: usize,
}

/// Handle for enqueuing jobs onto the worker pool. Clone one per
/// connection; drop every clone (and the pool's own) to initiate drain.
#[derive(Clone)]
pub struct JobQueue {
    tx: mpsc::Sender<QueuedJob>,
    inflight: Arc<AtomicUsize>,
    max_inflight: usize,
}

impl JobQueue {
    /// Tries to enqueue `job`, enforcing the in-flight sample cap.
    ///
    /// Returns `Err(job)` (backpressure — nothing enqueued, nothing
    /// consumed downstream) when the queue already holds
    /// `max_inflight` samples or the pool is gone.
    pub fn enqueue(&self, job: Job) -> std::result::Result<(), Job> {
        let samples = job.inputs.len();
        // Optimistic reservation: bump, then back out on overflow. Two
        // racing enqueues can both back out slightly early, which errs
        // on the side of shedding load — acceptable for a cap.
        let occupied = self.inflight.fetch_add(samples, Ordering::SeqCst);
        if occupied + samples > self.max_inflight {
            self.inflight.fetch_sub(samples, Ordering::SeqCst);
            return Err(job);
        }
        let queued = QueuedJob {
            job,
            enqueued: Instant::now(),
            depth: occupied + samples,
        };
        match self.tx.send(queued) {
            Ok(()) => Ok(()),
            Err(mpsc::SendError(queued)) => {
                self.inflight.fetch_sub(samples, Ordering::SeqCst);
                Err(queued.job)
            }
        }
    }

    /// Samples currently enqueued-but-unevaluated (the backpressure
    /// level) — scraped as the `serve.inflight` gauge.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }
}

/// The worker pool: owns the threads and the sending half handed to
/// connections via [`WorkerPool::queue`].
pub struct WorkerPool {
    queue: Option<JobQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` evaluation threads. `max_inflight` caps queued
    /// samples across the pool (backpressure); with `metrics` each
    /// worker records into its own shard.
    pub fn start(workers: usize, max_inflight: usize, metrics: Option<&ServeMetrics>) -> Self {
        let (tx, rx) = mpsc::channel::<QueuedJob>();
        let rx = Arc::new(Mutex::new(rx));
        let inflight = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers.max(1))
            .map(|index| {
                let rx = Arc::clone(&rx);
                let inflight = Arc::clone(&inflight);
                let shard = metrics.map(|m| m.worker_shard(index));
                std::thread::spawn(move || worker_loop(&rx, &inflight, shard.as_ref()))
            })
            .collect();
        WorkerPool {
            queue: Some(JobQueue {
                tx,
                inflight,
                max_inflight,
            }),
            workers: handles,
        }
    }

    /// A cloneable enqueue handle.
    pub fn queue(&self) -> JobQueue {
        self.queue.clone().expect("pool not yet shut down")
    }

    /// Drains and joins the pool: in-flight jobs are evaluated and
    /// answered first. Callers must drop every [`JobQueue`] clone they
    /// handed out, or this blocks until those clones die.
    pub fn shutdown(mut self) {
        self.queue.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<QueuedJob>>,
    inflight: &AtomicUsize,
    shard: Option<&Arc<MetricsShard>>,
) {
    loop {
        // The receiver lock is held only across the blocking `recv`
        // (the guard is a temporary), never while evaluating: idle
        // workers line up behind it and each job goes to the next free
        // one.
        let next = rx.lock().expect("queue lock").recv();
        // Every sender gone and the queue empty: drained, exit.
        let Ok(QueuedJob {
            job,
            enqueued,
            depth,
        }) = next
        else {
            return;
        };
        let started = Instant::now();
        let inputs: Vec<&[f64]> = job.inputs.iter().map(Vec::as_slice).collect();
        let evaluate = || {
            job.oracle
                .observe_batch_keyed(&inputs, &job.keys)
                .map_err(|e| e.to_string())
        };
        let result = match shard {
            Some(shard) => xbar_obs::with_scope(shard, &job.victim, evaluate),
            None => evaluate(),
        };
        if let Some(shard) = shard {
            let waited = started.saturating_duration_since(enqueued);
            shard.record(&job.victim, names::SERVE_QUEUE_DEPTH, depth as u64);
            shard.record(
                &job.victim,
                names::SERVE_QUEUE_WAIT_NS,
                waited.as_nanos() as u64,
            );
            shard.record(
                &job.victim,
                names::SERVE_EVAL_NS,
                started.elapsed().as_nanos() as u64,
            );
        }
        // Free the capacity before replying, so a client that sends its
        // next request on receipt never finds its answered job still
        // counted against the cap.
        inflight.fetch_sub(inputs.len(), Ordering::SeqCst);
        let _ = job.reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::oracle::OracleConfig;
    use xbar_crossbar::power::PowerModel;
    use xbar_linalg::Matrix;
    use xbar_nn::activation::Activation;
    use xbar_nn::network::SingleLayerNet;

    fn victim() -> Arc<Oracle> {
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let cfg = OracleConfig::ideal().with_power(PowerModel::default().with_noise(0.05));
        Arc::new(Oracle::new(net, &cfg, 77).unwrap())
    }

    fn job(
        oracle: &Arc<Oracle>,
        seed: u64,
        base: u64,
        inputs: Vec<Vec<f64>>,
    ) -> (
        Job,
        mpsc::Receiver<std::result::Result<Vec<Observation>, String>>,
    ) {
        let (reply, rx) = mpsc::channel();
        let keys = (0..inputs.len() as u64)
            .map(|i| QueryKey::new(seed, base + i))
            .collect();
        (
            Job {
                oracle: Arc::clone(oracle),
                victim: "toy".to_string(),
                inputs,
                keys,
                reply,
            },
            rx,
        )
    }

    #[test]
    fn pooled_results_match_direct_keyed_evaluation() {
        let oracle = victim();
        let pool = WorkerPool::start(2, 1024, None);
        let queue = pool.queue();
        let inputs_a = vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]];
        let inputs_b = vec![vec![-0.1, 0.7, 0.0]];
        let (job_a, rx_a) = job(&oracle, 1, 0, inputs_a.clone());
        let (job_b, rx_b) = job(&oracle, 2, 5, inputs_b.clone());
        queue.enqueue(job_a).map_err(|_| ()).unwrap();
        queue.enqueue(job_b).map_err(|_| ()).unwrap();
        let got_a = rx_a.recv().unwrap().unwrap();
        let got_b = rx_b.recv().unwrap().unwrap();
        drop(queue);
        pool.shutdown();

        let refs_a: Vec<&[f64]> = inputs_a.iter().map(Vec::as_slice).collect();
        let want_a = oracle
            .observe_batch_keyed(&refs_a, &[QueryKey::new(1, 0), QueryKey::new(1, 1)])
            .unwrap();
        assert_eq!(got_a, want_a);
        let refs_b: Vec<&[f64]> = inputs_b.iter().map(Vec::as_slice).collect();
        let want_b = oracle
            .observe_batch_keyed(&refs_b, &[QueryKey::new(2, 5)])
            .unwrap();
        assert_eq!(got_b, want_b);
    }

    #[test]
    fn backpressure_rejects_without_losing_jobs() {
        let oracle = victim();
        // One worker, tiny in-flight cap.
        let pool = WorkerPool::start(1, 2, None);
        let queue = pool.queue();
        let (job_big, _rx) = job(&oracle, 1, 0, vec![vec![0.0; 3]; 3]);
        // 3 samples > cap of 2: rejected, job returned intact.
        let rejected = queue.enqueue(job_big).unwrap_err();
        assert_eq!(rejected.inputs.len(), 3);
        // Within the cap still works.
        let (job_ok, rx) = job(&oracle, 1, 0, vec![vec![0.0; 3]; 2]);
        queue.enqueue(job_ok).map_err(|_| ()).unwrap();
        assert!(rx.recv().unwrap().is_ok());
        // An answered job no longer counts against the cap.
        assert_eq!(queue.inflight(), 0);
        drop(queue);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let oracle = victim();
        let pool = WorkerPool::start(1, 4096, None);
        let queue = pool.queue();
        let receivers: Vec<_> = (0..32)
            .map(|i| {
                let (j, rx) = job(&oracle, i, 0, vec![vec![0.1, 0.1, 0.1]]);
                queue.enqueue(j).map_err(|_| ()).unwrap();
                rx
            })
            .collect();
        drop(queue);
        pool.shutdown();
        for rx in receivers {
            assert!(rx.recv().unwrap().is_ok(), "job dropped during drain");
        }
    }
}
