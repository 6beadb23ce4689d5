//! Long-lived worker pool for the DT-CWT's four-tree fan-out.
//!
//! Earlier revisions funnelled every job through a single `Mutex<VecDeque>`
//! guarded by two condvars: each job took the global lock twice (enqueue,
//! dequeue) and every completion took a second global lock to push its
//! result, which is why two threads used to lose to one on small frames.
//! This revision replaces the queue with a **batch slot array** scheduler:
//!
//! * Jobs are published into a fixed ring of per-job slots; each slot has
//!   its own mutex, and because every index is written by the dispatcher
//!   once and claimed by exactly one worker once, those locks are never
//!   contended — they only order the hand-off.
//! * Workers claim work as `(start, end)` *chunks* of the batch index range
//!   via a compare-and-swap loop on one shared atomic cursor (the
//!   range-splitting scheme: the chunk size adapts to the work remaining so
//!   large batches split across workers while small batches stay
//!   fine-grained for load balance). A job itself stays tree-granular (a
//!   forward row tree or an inverse combo) —
//!   this crate forbids `unsafe`, so a mutable output buffer cannot be
//!   row-banded across threads; the cursor splits the *batch*, not a row.
//! * Completion is a per-slot outcome cell; there is no drained results
//!   vector and no global results lock.
//! * The dispatcher harvests outcomes oldest first
//!   ([`WorkerPool::drain_partial`]), so several batches can be stacked in
//!   the ring and collected one by one. Each outcome carries its own error,
//!   and a harvest reports the earliest errored job among the outcomes it
//!   collected, so error reporting is deterministic no matter which worker
//!   hit the failure first.
//! * Idle workers spin briefly (claims are typically microseconds apart in
//!   the frame loop) and then park on a condvar; a harvesting dispatcher
//!   does the same while it waits for an outcome.
//!
//! Because this crate forbids `unsafe`, the pool never shares borrowed data
//! with workers. A [`Job`] *owns* everything it needs: `Arc`s of the
//! immutable transform/inputs and moved output buffers that ping-pong
//! between the dispatcher and the workers each frame. Steady-state dispatch
//! therefore performs no heap allocation: slots are pre-allocated, job
//! payloads are moves, and `Arc` clones are reference count bumps.
//!
//! Each worker owns one [`Scratch`] and one boxed kernel per backend slot
//! (built once by the construction-time factory), mirroring the paper's
//! model of fixed per-engine line buffers.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::dtcwt::{CwtPyramid, Dtcwt};
use crate::image::Image;
use crate::kernel::FilterKernel;
use crate::scratch::{ComboSlot, Scratch};
use crate::DtcwtError;

/// One unit of work: one row tree (both of its tree combinations) of a
/// forward DT-CWT, or one tree combination of an inverse. Output buffers
/// are moved in empty (or pre-sized from a previous frame) and handed back
/// through [`JobOutcome`].
#[derive(Debug)]
pub enum Job {
    /// Analyze both tree combinations of row tree `tree` of `img`, sharing
    /// their level-1 row pass.
    ForwardTree {
        /// The transform (shared, immutable).
        transform: Arc<Dtcwt>,
        /// Input image (shared, immutable).
        img: Arc<Image>,
        /// Caller-chosen batch tag (e.g. which of several inputs).
        tag: u32,
        /// Row-tree index 0..2 (A, B): combos `2 tree` and `2 tree + 1`.
        tree: usize,
        /// Index into the worker's kernel slots.
        kernel: usize,
        /// The two combos' output buffers, in combo order (moved back via
        /// the outcome).
        slots: [ComboSlot; 2],
    },
    /// Synthesize one tree combination of `pyr`.
    InverseCombo {
        /// The transform (shared, immutable).
        transform: Arc<Dtcwt>,
        /// Input pyramid (shared, immutable).
        pyr: Arc<CwtPyramid>,
        /// Caller-chosen batch tag.
        tag: u32,
        /// Tree-combination index 0..4.
        combo: usize,
        /// Index into the worker's kernel slots.
        kernel: usize,
        /// Reconstruction output buffer (moved back via the outcome).
        out: Image,
    },
}

impl Job {
    fn ids(&self) -> (u32, usize) {
        match self {
            Job::ForwardTree { tag, tree, .. } => (*tag, *tree),
            Job::InverseCombo { tag, combo, .. } => (*tag, *combo),
        }
    }
}

/// The buffers a completed [`Job`] hands back.
#[derive(Debug)]
pub enum JobPayload {
    /// Output of a [`Job::ForwardTree`].
    Forward {
        /// The row tree's two combos (detail pyramid and lowpass residual
        /// each), in combo order.
        slots: [ComboSlot; 2],
    },
    /// Output of a [`Job::InverseCombo`].
    Inverse {
        /// This combination's reconstruction.
        out: Image,
    },
    /// The job panicked and its buffers could not be recovered.
    Lost,
}

/// Result of one [`Job`], tagged so the dispatcher can place it.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's batch tag.
    pub tag: u32,
    /// The job's tree-combination index (an inverse job) or row-tree
    /// index (a forward job).
    pub combo: usize,
    /// Returned buffers (valid only when `error` is `None`).
    pub payload: JobPayload,
    /// The job's error, if it failed.
    pub error: Option<DtcwtError>,
}

/// Capacity of the slot ring: the largest batch that may be in flight
/// between two drains. One fusion engine submits at most
/// [`crate::FORWARD_JOBS_PER_PAIR`] forward jobs (two row trees of each
/// image) or four inverse combo jobs per frame; a serving fleet packs many
/// streams' forwards up to this bound. Fixed so steady-state dispatch never
/// reallocates.
pub const BATCH_SLOTS: usize = 64;

/// Claim-chunk divisor: a claim takes `max(1, remaining / (threads * 4))`
/// jobs, so large batches split into a few chunks per worker (amortizing
/// the CAS) while the frame path's four heavy tree or combo jobs stay
/// job-granular for load balance.
const CLAIM_SPLIT: usize = 4;

/// Spin iterations before an idle worker parks on the condvar.
const WORKER_SPINS: usize = 2_048;

/// Spin iterations before a draining dispatcher parks on the condvar.
const DRAIN_SPINS: usize = 2_048;

/// Sentinel for "no worker has claimed yet" in `last_claimer`.
const NO_WORKER: usize = usize::MAX;

/// Per-worker scheduler counters, snapshotted from the pool's atomics.
///
/// `steals` counts claims whose immediately preceding claim (pool-wide)
/// was made by a *different* worker — i.e. the chunk continued a batch
/// range another worker had been working through. The very first claim
/// after pool construction is not a steal. On a single-threaded pool
/// `steals` is always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSchedStats {
    /// Claim chunks this worker took from the shared cursor.
    pub batches_claimed: u64,
    /// Claims that continued another worker's run (see type docs).
    pub steals: u64,
    /// Individual jobs executed by this worker.
    pub jobs: u64,
    /// Nanoseconds this worker spent parked on the idle condvar.
    pub parked_ns: u64,
}

impl WorkerSchedStats {
    /// Adds another snapshot's counters into this one.
    pub fn merge(&mut self, other: &WorkerSchedStats) {
        self.batches_claimed += other.batches_claimed;
        self.steals += other.steals;
        self.jobs += other.jobs;
        self.parked_ns += other.parked_ns;
    }
}

/// One worker's live counter cells (written by that worker only; read by
/// anyone). Observation sites are chunk-granular, far below the contention
/// regime where cache-line padding would matter.
#[derive(Default)]
struct WorkerCell {
    claims: AtomicU64,
    steals: AtomicU64,
    jobs: AtomicU64,
    parked_ns: AtomicU64,
}

/// One job's hand-off cell. The dispatcher stores the job before
/// publishing the index; exactly one worker takes it, runs it, and stores
/// the outcome; the dispatcher takes the outcome during drain. Each mutex
/// therefore only ever orders a single writer/reader pair.
#[derive(Default)]
struct Slot {
    job: Mutex<Option<Job>>,
    outcome: Mutex<Option<JobOutcome>>,
}

struct Shared {
    /// Fixed ring of job/outcome cells, indexed by `sequence % BATCH_SLOTS`.
    slots: Vec<Slot>,
    /// Jobs published so far (monotonic; slot `limit - 1` is readable once
    /// this is stored).
    limit: AtomicUsize,
    /// Next unclaimed job sequence (monotonic; always `<= limit`).
    cursor: AtomicUsize,
    /// Outcomes harvested so far (monotonic; dispatcher-only).
    harvested: AtomicUsize,
    shutdown: AtomicBool,
    threads: usize,
    /// Number of workers parked on `wake` (Dekker-style flag: submitters
    /// only take the park lock when a worker might be sleeping).
    parked: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
    /// Whether the dispatcher is parked in a harvest (same flag pattern).
    drain_waiting: AtomicBool,
    drain_park: Mutex<()>,
    drained: Condvar,
    /// Per-worker scheduler counters, indexed by worker.
    stats: Vec<WorkerCell>,
    /// Worker index of the most recent successful claim (`NO_WORKER`
    /// until the first), used to classify cross-worker steals.
    last_claimer: AtomicUsize,
}

impl Shared {
    fn work_available(&self) -> bool {
        self.cursor.load(SeqCst) < self.limit.load(SeqCst)
    }

    /// Claims the next chunk of unclaimed job sequences for worker `me`,
    /// splitting the remaining range adaptively and charging the claim /
    /// steal / job counters. Returns `None` when the batch is empty.
    fn claim(&self, me: usize) -> Option<(usize, usize)> {
        loop {
            let limit = self.limit.load(SeqCst);
            let cur = self.cursor.load(SeqCst);
            if cur >= limit {
                return None;
            }
            let avail = limit - cur;
            let chunk = (avail / (self.threads * CLAIM_SPLIT)).clamp(1, avail);
            if self
                .cursor
                .compare_exchange(cur, cur + chunk, SeqCst, SeqCst)
                .is_ok()
            {
                let cell = &self.stats[me];
                cell.claims.fetch_add(1, SeqCst);
                cell.jobs.fetch_add(chunk as u64, SeqCst);
                let prev = self.last_claimer.swap(me, SeqCst);
                if prev != me && prev != NO_WORKER {
                    cell.steals.fetch_add(1, SeqCst);
                }
                return Some((cur, cur + chunk));
            }
        }
    }
}

/// Builds the kernel slots one worker owns. Called once per worker at pool
/// construction with the worker index; every worker must return the same
/// slot layout so `Job::kernel` indices mean the same thing everywhere.
pub type KernelFactory<'a> = &'a mut dyn FnMut(usize) -> Vec<Box<dyn FilterKernel + Send>>;

/// A fixed set of worker threads executing DT-CWT combo jobs.
///
/// Intended for a **single dispatcher**: submit jobs (at most
/// [`BATCH_SLOTS`] unharvested at a time), then harvest their outcomes
/// oldest first with [`WorkerPool::drain_partial`]. Workers and their
/// kernels/scratch live as long as the pool; dropping the pool joins all
/// threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one), each owning the kernel slots
    /// `factory(worker_index)` returns plus a private [`Scratch`].
    pub fn new(threads: usize, factory: KernelFactory<'_>) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slots: (0..BATCH_SLOTS).map(|_| Slot::default()).collect(),
            limit: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            harvested: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            threads,
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
            drain_waiting: AtomicBool::new(false),
            drain_park: Mutex::new(()),
            drained: Condvar::new(),
            stats: (0..threads).map(|_| WorkerCell::default()).collect(),
            last_claimer: AtomicUsize::new(NO_WORKER),
        });
        let handles = (0..threads)
            .map(|i| {
                let kernels = factory(i);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wavefuse-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i, kernels))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of one worker's scheduler counters. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= threads`.
    pub fn sched_stats(&self, worker: usize) -> WorkerSchedStats {
        let cell = &self.shared.stats[worker];
        WorkerSchedStats {
            batches_claimed: cell.claims.load(SeqCst),
            steals: cell.steals.load(SeqCst),
            jobs: cell.jobs.load(SeqCst),
            parked_ns: cell.parked_ns.load(SeqCst),
        }
    }

    /// Sum of every worker's scheduler counters. Allocation-free.
    pub fn sched_totals(&self) -> WorkerSchedStats {
        let mut total = WorkerSchedStats::default();
        for worker in 0..self.threads {
            total.merge(&self.sched_stats(worker));
        }
        total
    }

    /// Publishes one job; an idle worker may start it immediately.
    ///
    /// # Panics
    ///
    /// Panics if more than [`BATCH_SLOTS`] jobs are outstanding (submitted
    /// but not harvested by [`WorkerPool::drain_partial`]), a dispatcher
    /// protocol bug.
    pub fn submit(&self, job: Job) {
        let shared = &self.shared;
        let seq = shared.limit.load(SeqCst);
        assert!(
            seq - shared.harvested.load(SeqCst) < BATCH_SLOTS,
            "worker pool batch capacity ({BATCH_SLOTS}) exceeded without a harvest"
        );
        *shared.slots[seq % BATCH_SLOTS]
            .job
            .lock()
            .expect("worker pool poisoned") = Some(job);
        // Publish: the slot store above happens-before this (SeqCst), so a
        // worker that observes the new limit sees the job.
        shared.limit.store(seq + 1, SeqCst);
        if shared.parked.load(SeqCst) > 0 {
            let _g = shared.park.lock().expect("worker pool poisoned");
            shared.wake.notify_one();
        }
    }

    /// Blocks until the **oldest** `n` outstanding jobs complete and appends
    /// their outcomes to `out` in submission order, leaving any
    /// later-submitted jobs in flight. Returns the batch-relative index of
    /// the earliest-submitted errored job among the harvested `n`, if any.
    ///
    /// This is the pool's one harvest: the dispatcher can keep several
    /// batches in flight (a fleet's packed forwards, depth-k inverse
    /// batches) and collect them batch by batch as frames need them.
    ///
    /// A later job may complete before an earlier one, so this waits on
    /// each harvested slot's outcome cell individually — spinning briefly,
    /// then parking on the drain condvar (`run_slot` stores the outcome
    /// before testing `drain_waiting`, so the flag store/recheck pair below
    /// cannot miss a wakeup).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` jobs are outstanding.
    pub fn drain_partial(&self, n: usize, out: &mut Vec<JobOutcome>) -> Option<usize> {
        let shared = &self.shared;
        let start = shared.harvested.load(SeqCst);
        let target = start + n;
        assert!(
            target <= shared.limit.load(SeqCst),
            "partial drain asked for more outcomes than jobs outstanding"
        );
        let mut first_err = None;
        for (i, seq) in (start..target).enumerate() {
            let slot = &shared.slots[seq % BATCH_SLOTS];
            let mut spins = 0usize;
            let outcome = loop {
                if let Some(oc) = slot.outcome.lock().expect("worker pool poisoned").take() {
                    break oc;
                }
                spins += 1;
                if spins < DRAIN_SPINS {
                    std::hint::spin_loop();
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                    continue;
                }
                let g = shared.drain_park.lock().expect("worker pool poisoned");
                shared.drain_waiting.store(true, SeqCst);
                // Recheck under the park lock (Dekker pairing with run_slot).
                let oc = slot.outcome.lock().expect("worker pool poisoned").take();
                if let Some(oc) = oc {
                    shared.drain_waiting.store(false, SeqCst);
                    break oc;
                }
                let _g = shared.drained.wait(g).expect("worker pool poisoned");
                shared.drain_waiting.store(false, SeqCst);
                spins = 0;
            };
            if first_err.is_none() && outcome.error.is_some() {
                first_err = Some(i);
            }
            out.push(outcome);
        }
        shared.harvested.store(target, SeqCst);
        first_err
    }

    /// Number of submitted jobs not yet harvested by a drain.
    pub fn outstanding(&self) -> usize {
        self.shared.limit.load(SeqCst) - self.shared.harvested.load(SeqCst)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        {
            let _g = self.shared.park.lock().expect("worker pool poisoned");
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize, mut kernels: Vec<Box<dyn FilterKernel + Send>>) {
    let mut scratch = Scratch::new();
    let mut spins = 0usize;
    loop {
        if let Some((start, end)) = shared.claim(me) {
            spins = 0;
            for seq in start..end {
                run_slot(shared, seq, &mut kernels, &mut scratch);
            }
            continue;
        }
        if shared.shutdown.load(SeqCst) {
            return;
        }
        spins += 1;
        if spins < WORKER_SPINS {
            std::hint::spin_loop();
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            }
            continue;
        }
        // Park. The recheck below runs after `parked` is visible, and
        // `submit` checks `parked` after publishing, so one side always
        // sees the other (no lost wakeup).
        let park_start = std::time::Instant::now();
        let mut g = shared.park.lock().expect("worker pool poisoned");
        shared.parked.fetch_add(1, SeqCst);
        while !shared.shutdown.load(SeqCst) && !shared.work_available() {
            g = shared.wake.wait(g).expect("worker pool poisoned");
        }
        shared.parked.fetch_sub(1, SeqCst);
        drop(g);
        shared.stats[me]
            .parked_ns
            .fetch_add(park_start.elapsed().as_nanos() as u64, SeqCst);
        spins = 0;
    }
}

/// Takes the claimed slot's job, runs it, publishes the outcome and wakes
/// a parked harvester.
fn run_slot(
    shared: &Shared,
    seq: usize,
    kernels: &mut [Box<dyn FilterKernel + Send>],
    scratch: &mut Scratch,
) {
    let slot = &shared.slots[seq % BATCH_SLOTS];
    let job = slot
        .job
        .lock()
        .expect("worker pool poisoned")
        .take()
        .expect("claimed slot holds a job");
    let outcome = run_job(job, kernels, scratch);
    *slot.outcome.lock().expect("worker pool poisoned") = Some(outcome);
    if shared.drain_waiting.load(SeqCst) {
        let _g = shared.drain_park.lock().expect("worker pool poisoned");
        shared.drained.notify_all();
    }
}

/// Executes one job, converting panics into an error outcome so the
/// dispatcher's harvest never deadlocks on a crashed job.
fn run_job(
    job: Job,
    kernels: &mut [Box<dyn FilterKernel + Send>],
    scratch: &mut Scratch,
) -> JobOutcome {
    let (tag, combo) = job.ids();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(job, kernels, scratch)
    }))
    .unwrap_or_else(|_| JobOutcome {
        tag,
        combo,
        payload: JobPayload::Lost,
        error: Some(DtcwtError::MalformedPyramid(
            "worker job panicked".to_string(),
        )),
    })
}

fn execute(
    job: Job,
    kernels: &mut [Box<dyn FilterKernel + Send>],
    scratch: &mut Scratch,
) -> JobOutcome {
    match job {
        Job::ForwardTree {
            transform,
            img,
            tag,
            tree,
            kernel,
            mut slots,
        } => {
            let error = match kernels.get_mut(kernel) {
                Some(k) => transform
                    .analyze_tree_into(k.as_mut(), &img, tree, &mut slots, scratch)
                    .err(),
                None => Some(DtcwtError::MalformedPyramid(format!(
                    "worker has no kernel slot {kernel}"
                ))),
            };
            JobOutcome {
                tag,
                combo: tree,
                payload: JobPayload::Forward { slots },
                error,
            }
        }
        Job::InverseCombo {
            transform,
            pyr,
            tag,
            combo,
            kernel,
            mut out,
        } => {
            let error = match kernels.get_mut(kernel) {
                Some(k) => {
                    match transform.synthesize_combo_into(k.as_mut(), &pyr, combo, scratch) {
                        Ok(()) => {
                            // The combo's reconstruction is left in the
                            // scratch ping buffer.
                            out.copy_from(&scratch.cur);
                            None
                        }
                        Err(e) => Some(e),
                    }
                }
                None => Some(DtcwtError::MalformedPyramid(format!(
                    "worker has no kernel slot {kernel}"
                ))),
            };
            JobOutcome {
                tag,
                combo,
                payload: JobPayload::Inverse { out },
                error,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScalarKernel;
    use crate::scratch::ComboStore;

    fn boxed_scalar(_: usize) -> Vec<Box<dyn FilterKernel + Send>> {
        vec![Box::new(ScalarKernel::new())]
    }

    /// Runs both forwards of `img` paired with itself as one four-job
    /// batch on kernel slot `kernel`, returning the two pyramids.
    fn forward_pair(
        pool: &WorkerPool,
        t: &Arc<Dtcwt>,
        kernel: usize,
        img: &Arc<Image>,
    ) -> Result<(CwtPyramid, CwtPyramid), DtcwtError> {
        let (mut combos_a, mut combos_b) = (ComboStore::new(), ComboStore::new());
        let (mut out_a, mut out_b) = (CwtPyramid::empty(), CwtPyramid::empty());
        t.forward_pooled_pair(
            pool,
            kernel,
            img,
            &mut combos_a,
            &mut out_a,
            img,
            &mut combos_b,
            &mut out_b,
            &mut Vec::new(),
        )?;
        Ok((out_a, out_b))
    }

    #[test]
    fn pool_runs_forward_jobs() {
        let pool = WorkerPool::new(2, &mut boxed_scalar);
        let t = Arc::new(Dtcwt::new(2).unwrap());
        let img = Arc::new(Image::from_fn(32, 24, |x, y| ((x * 3 + y) % 7) as f32));
        let (out_a, out_b) = forward_pair(&pool, &t, 0, &img).unwrap();
        let serial = t.forward(&img).unwrap();
        for out in [&out_a, &out_b] {
            for level in 0..2 {
                for (a, b) in serial.subbands(level).iter().zip(out.subbands(level)) {
                    assert_eq!(a.re, b.re);
                    assert_eq!(a.im, b.im);
                }
            }
        }
    }

    #[test]
    fn bad_kernel_slot_reports_error() {
        let pool = WorkerPool::new(1, &mut boxed_scalar);
        let t = Arc::new(Dtcwt::new(1).unwrap());
        let img = Arc::new(Image::filled(8, 8, 1.0));
        let err = forward_pair(&pool, &t, 9, &img).unwrap_err();
        assert!(matches!(err, DtcwtError::MalformedPyramid(_)));
    }

    #[test]
    fn drop_joins_cleanly_with_queued_shutdown() {
        let pool = WorkerPool::new(3, &mut boxed_scalar);
        assert_eq!(pool.threads(), 3);
        drop(pool); // must not hang
    }

    #[test]
    fn sched_counters_account_for_every_job() {
        let pool = WorkerPool::new(2, &mut boxed_scalar);
        let t = Arc::new(Dtcwt::new(2).unwrap());
        let img = Arc::new(Image::from_fn(32, 24, |x, y| ((x + 5 * y) % 11) as f32));
        for _ in 0..4 {
            forward_pair(&pool, &t, 0, &img).unwrap();
        }
        let totals = pool.sched_totals();
        // Every executed job was claimed through the shared cursor; each
        // pair-forward batch submits four row-tree jobs.
        assert_eq!(totals.jobs, 16, "totals: {totals:?}");
        assert!(totals.batches_claimed >= 1 && totals.batches_claimed <= totals.jobs);
        // A steal is a kind of claim, never more than all of them. (Steal
        // and park counts depend on scheduling luck, so no lower bound.)
        assert!(totals.steals <= totals.batches_claimed);
        let per_worker: u64 = (0..pool.threads()).map(|w| pool.sched_stats(w).jobs).sum();
        assert_eq!(per_worker, totals.jobs);
    }

    #[test]
    fn single_worker_never_steals() {
        let pool = WorkerPool::new(1, &mut boxed_scalar);
        let t = Arc::new(Dtcwt::new(1).unwrap());
        let img = Arc::new(Image::filled(16, 16, 0.25));
        for _ in 0..3 {
            forward_pair(&pool, &t, 0, &img).unwrap();
        }
        let stats = pool.sched_stats(0);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.jobs, 12);
    }

    #[test]
    fn outcomes_arrive_in_submission_order() {
        let pool = WorkerPool::new(3, &mut boxed_scalar);
        let t = Arc::new(Dtcwt::new(1).unwrap());
        let img = Arc::new(Image::from_fn(16, 16, |x, y| (x + 2 * y) as f32));
        for round in 0..8u32 {
            // Both row trees of two tagged images: four jobs per round.
            let mut want = Vec::new();
            for tag in [2 * round, 2 * round + 1] {
                let mut combos = ComboStore::new();
                for (rt, pair) in combos.slots.chunks_exact_mut(2).enumerate() {
                    pool.submit(Job::ForwardTree {
                        transform: Arc::clone(&t),
                        img: Arc::clone(&img),
                        tag,
                        tree: rt,
                        kernel: 0,
                        slots: [std::mem::take(&mut pair[0]), std::mem::take(&mut pair[1])],
                    });
                    want.push((tag, rt));
                }
            }
            let mut outcomes = Vec::new();
            assert_eq!(pool.drain_partial(4, &mut outcomes), None);
            let order: Vec<(u32, usize)> = outcomes.iter().map(|o| (o.tag, o.combo)).collect();
            assert_eq!(order, want, "round {round}");
        }
    }

    #[test]
    fn chunked_claims_cover_large_batches() {
        // More jobs than threads by a wide margin: the adaptive chunking
        // must still run every job exactly once and report the earliest
        // error deterministically.
        let pool = WorkerPool::new(4, &mut boxed_scalar);
        let t = Arc::new(Dtcwt::new(1).unwrap());
        let img = Arc::new(Image::filled(8, 8, 0.5));
        let mut outcomes = Vec::new();
        let n = BATCH_SLOTS;
        for i in 0..n {
            pool.submit(Job::ForwardTree {
                transform: Arc::clone(&t),
                img: Arc::clone(&img),
                tag: i as u32,
                // Every third job asks for a missing kernel slot.
                tree: i % 2,
                kernel: if i % 3 == 2 { 7 } else { 0 },
                slots: Default::default(),
            });
        }
        let first_err = pool.drain_partial(n, &mut outcomes);
        assert_eq!(outcomes.len(), n);
        assert_eq!(first_err, Some(2), "job 2 is the earliest injected failure");
        for (i, oc) in outcomes.iter().enumerate() {
            assert_eq!(oc.tag, i as u32);
            assert_eq!(oc.error.is_some(), i % 3 == 2);
        }
    }

    #[test]
    fn stress_many_tiny_batches_with_failures_and_shutdown() {
        // Shutdown/error stress: across several pool widths, hammer the
        // scheduler with back-to-back full batches of tiny jobs, a rotating
        // injected-failure pattern, and finally a shutdown with a full
        // unharvested batch in flight. Every batch must report exactly its
        // own completions (none lost, none duplicated), the earliest error
        // deterministically, and the drop must join cleanly.
        let t = Arc::new(Dtcwt::new(1).unwrap());
        let img = Arc::new(Image::from_fn(8, 8, |x, y| (x * 5 + y) as f32));
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads, &mut boxed_scalar);
            let mut outcomes = Vec::new();
            for batch in 0..25usize {
                let n = BATCH_SLOTS;
                // Rotate which residue fails so error-free batches occur too.
                let fail_mod = 2 + batch % 5;
                let fail_offset = batch % fail_mod;
                for i in 0..n {
                    pool.submit(Job::ForwardTree {
                        transform: Arc::clone(&t),
                        img: Arc::clone(&img),
                        tag: (batch * n + i) as u32,
                        tree: i % 2,
                        kernel: if i % fail_mod == fail_offset { 9 } else { 0 },
                        slots: Default::default(),
                    });
                }
                let first_err = pool.drain_partial(n, &mut outcomes);
                assert_eq!(outcomes.len(), n, "threads {threads} batch {batch}");
                assert_eq!(
                    first_err,
                    Some(fail_offset),
                    "threads {threads} batch {batch}: earliest injected failure"
                );
                for (i, oc) in outcomes.iter().enumerate() {
                    assert_eq!(oc.tag, (batch * n + i) as u32);
                    assert_eq!(
                        oc.error.is_some(),
                        i % fail_mod == fail_offset,
                        "threads {threads} batch {batch} job {i}"
                    );
                }
                outcomes.clear();
            }
            // Leave a full batch in flight and drop: must join, not hang.
            for i in 0..BATCH_SLOTS {
                pool.submit(Job::ForwardTree {
                    transform: Arc::clone(&t),
                    img: Arc::clone(&img),
                    tag: i as u32,
                    tree: i % 2,
                    kernel: 0,
                    slots: Default::default(),
                });
            }
            drop(pool);
        }
    }

    /// Submits one four-job inverse batch tagged `tag` (kernel slot 9 on
    /// `fail_combo` injects a missing-kernel failure).
    fn submit_inverse_batch(
        pool: &WorkerPool,
        t: &Arc<Dtcwt>,
        tag: u32,
        fail_combo: Option<usize>,
    ) {
        let pyr = Arc::new(
            t.forward(&Image::filled(16, 16, tag as f32 * 0.1 + 0.5))
                .unwrap(),
        );
        for ci in 0..4 {
            pool.submit(Job::InverseCombo {
                transform: Arc::clone(t),
                pyr: Arc::clone(&pyr),
                tag,
                combo: ci,
                kernel: if fail_combo == Some(ci) { 9 } else { 0 },
                out: Image::zeros(0, 0),
            });
        }
    }

    #[test]
    fn partial_drains_harvest_interleaved_batches_in_order() {
        // Depth-k shape: several inverse batches in flight at once, each
        // harvested by its own partial drain while later batches keep
        // running, interleaved with a harvest of a forward batch submitted
        // on top. Outcomes must arrive batch-major in submission
        // order at every pool width.
        let t = Arc::new(Dtcwt::new(1).unwrap());
        let img = Arc::new(Image::from_fn(16, 16, |x, y| (3 * x + y) as f32 * 0.05));
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads, &mut boxed_scalar);
            for tag in 0..3u32 {
                submit_inverse_batch(&pool, &t, tag, None);
            }
            assert_eq!(pool.outstanding(), 12);
            let mut outcomes = Vec::new();
            // Harvest the two oldest batches; the third stays in flight.
            assert_eq!(pool.drain_partial(8, &mut outcomes), None);
            assert_eq!(pool.outstanding(), 4);
            // Stack a forward batch (both row trees of one image) on top
            // and harvest it together with the leftover inverse batch.
            let mut combos = ComboStore::new();
            for (rt, pair) in combos.slots.chunks_exact_mut(2).enumerate() {
                pool.submit(Job::ForwardTree {
                    transform: Arc::clone(&t),
                    img: Arc::clone(&img),
                    tag: 7,
                    tree: rt,
                    kernel: 0,
                    slots: [std::mem::take(&mut pair[0]), std::mem::take(&mut pair[1])],
                });
            }
            assert_eq!(pool.drain_partial(6, &mut outcomes), None);
            assert_eq!(pool.outstanding(), 0);
            let ids: Vec<(u32, usize)> = outcomes.iter().map(|o| (o.tag, o.combo)).collect();
            let want: Vec<(u32, usize)> = [0u32, 1, 2]
                .into_iter()
                .flat_map(|tag| (0..4).map(move |ci| (tag, ci)))
                .chain([(7, 0), (7, 1)])
                .collect();
            assert_eq!(ids, want, "threads {threads}");
        }
    }

    #[test]
    fn partial_drain_keeps_later_in_flight_errors() {
        // A failure in a *later* still-in-flight batch must not leak into
        // the earlier batch's partial drain, nor be lost by it: each batch
        // reports exactly its own earliest failure.
        let t = Arc::new(Dtcwt::new(1).unwrap());
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads, &mut boxed_scalar);
            submit_inverse_batch(&pool, &t, 0, None);
            submit_inverse_batch(&pool, &t, 1, Some(2));
            let mut outcomes = Vec::new();
            assert_eq!(
                pool.drain_partial(4, &mut outcomes),
                None,
                "threads {threads}: clean batch must not report the later failure"
            );
            assert!(outcomes.iter().all(|o| o.error.is_none()));
            outcomes.clear();
            assert_eq!(
                pool.drain_partial(4, &mut outcomes),
                Some(2),
                "threads {threads}: failing batch reports its own combo"
            );
            assert!(outcomes[2].error.is_some());
        }
    }

    #[test]
    fn partial_drain_of_failing_prefix_reports_and_clears() {
        // The earlier batch fails while a clean batch is still in flight:
        // the partial drain reports the failure, and the follow-up harvest of
        // the clean batch sees no stale error.
        let t = Arc::new(Dtcwt::new(1).unwrap());
        let pool = WorkerPool::new(2, &mut boxed_scalar);
        submit_inverse_batch(&pool, &t, 0, Some(1));
        submit_inverse_batch(&pool, &t, 1, None);
        let mut outcomes = Vec::new();
        assert_eq!(pool.drain_partial(4, &mut outcomes), Some(1));
        outcomes.clear();
        assert_eq!(pool.drain_partial(4, &mut outcomes), None);
        assert!(outcomes.iter().all(|o| o.error.is_none()));
    }
}
