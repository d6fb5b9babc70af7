//! Multi-session serving layer over a shared [`Database`].
//!
//! A [`Server`] wraps an `Arc<Database>` with admission control and
//! hands out [`Session`]s. Each session owns its prepared statements
//! and its own `SET EXECUTOR` / `SET PLAN_CACHE` / `SET FEEDBACK`
//! state —
//! the per-connection knobs a SQL shell exposes — while all sessions
//! share one catalog, one buffer pool, and one plan cache. Sessions are
//! plain values: move one per thread and execute concurrently; the
//! database underneath is `Send + Sync`.
//!
//! # Admission control
//!
//! The paper leaves "pursuing all moves or only a selected few" to the
//! optimizer implementor (§3), and a move limit of one makes every goal
//! take the first move in promise order that yields a plan: greedy
//! completion, an upper bound on the optimum found in a fraction of the
//! search. The serving layer uses exactly that degree of freedom for
//! overload: a fixed number of concurrency tickets bounds how many
//! executions run full exhaustive search at once, and an execution that
//! finds no ticket free never waits for one: it proceeds immediately
//! with greedy search (`move_limit: Some(1)`). Latency is bounded by
//! doing less work, not by queueing behind other queries.
//!
//! Overload therefore degrades plan quality — bounded, observable (the
//! [`SessionOutcome`] says so), and never cached (see
//! [`ExecOptions::move_limit`]) — rather than growing a queue.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use volcano_core::trace::Tracer;
use volcano_rel::value::Tuple;
use volcano_rel::Value;
use volcano_sql::AstQuery;

use crate::compile::Engine;
use crate::database::{Database, ExecOptions, PrepareError, PreparedOutcome, PreparedStatement};

/// The latency class of a session. Every session is interactive: an
/// execution that finds no ticket free degrades its search rather than
/// queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Latency-sensitive: never queues; degrades search under load.
    Interactive,
}

/// Serving-layer tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrency tickets: how many executions may run full-quality
    /// search at once.
    pub max_concurrent: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_concurrent: 8 }
    }
}

/// Point-in-time admission counters. `admitted_full +
/// admitted_degraded` equals the number of `admit` calls that have
/// returned, so the two tallies reconcile exactly against the request
/// count a workload kept on its side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Executions admitted with a ticket (full search quality).
    pub admitted_full: u64,
    /// Executions admitted without a ticket (greedy search).
    pub admitted_degraded: u64,
    /// Tickets currently held.
    pub in_flight: usize,
    /// High-water mark of held tickets.
    pub peak_in_flight: usize,
}

struct AdmState {
    in_use: usize,
    peak: usize,
}

/// A counting semaphore that is tried once and never waited on.
/// Failure to acquire is not an error — the caller proceeds degraded.
pub struct AdmissionControl {
    max: usize,
    state: Mutex<AdmState>,
    admitted_full: AtomicU64,
    admitted_degraded: AtomicU64,
}

/// A held concurrency ticket; released on drop.
pub struct Ticket<'a> {
    ctl: &'a AdmissionControl,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        // Every update leaves the counts valid, so a poisoned lock is
        // still safe to read, and a drop must not panic.
        let mut st = self
            .ctl
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.in_use -= 1;
    }
}

/// The admission decision for one execution: either a held ticket
/// (full quality) or permission to proceed degraded.
pub struct Admission<'a> {
    ticket: Option<Ticket<'a>>,
}

impl Admission<'_> {
    /// Was this execution admitted without a ticket?
    pub fn degraded(&self) -> bool {
        self.ticket.is_none()
    }
}

impl AdmissionControl {
    /// A semaphore with `max_concurrent` tickets.
    pub fn new(max_concurrent: usize) -> Self {
        assert!(max_concurrent > 0, "admission needs at least one ticket");
        AdmissionControl {
            max: max_concurrent,
            state: Mutex::new(AdmState { in_use: 0, peak: 0 }),
            admitted_full: AtomicU64::new(0),
            admitted_degraded: AtomicU64::new(0),
        }
    }

    /// Admit one execution: with a ticket if one is free, else degraded
    /// at once. Never fails and never waits.
    pub fn admit(&self) -> Admission<'_> {
        let mut st = self
            .state
            .lock()
            .expect("no admission panics holding the lock");
        let ticket = (st.in_use < self.max).then(|| {
            st.in_use += 1;
            st.peak = st.peak.max(st.in_use);
            Ticket { ctl: self }
        });
        drop(st);
        let tally = match ticket {
            Some(_) => &self.admitted_full,
            None => &self.admitted_degraded,
        };
        tally.fetch_add(1, Ordering::Relaxed);
        Admission { ticket }
    }

    /// Current counters.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.state.lock().unwrap();
        AdmissionStats {
            admitted_full: self.admitted_full.load(Ordering::Relaxed),
            admitted_degraded: self.admitted_degraded.load(Ordering::Relaxed),
            in_flight: st.in_use,
            peak_in_flight: st.peak,
        }
    }
}

/// A database plus the serving-layer state shared by all its sessions.
pub struct Server {
    db: Arc<Database>,
    admission: Arc<AdmissionControl>,
}

impl Server {
    /// Serve a freshly-owned database.
    pub fn new(db: Database, config: ServerConfig) -> Self {
        Self::over(Arc::new(db), config)
    }

    /// Serve an already-shared database.
    pub fn over(db: Arc<Database>, config: ServerConfig) -> Self {
        let admission = Arc::new(AdmissionControl::new(config.max_concurrent));
        Server { db, admission }
    }

    /// The served database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The shared admission controller.
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Open a session ([`TrafficClass::Interactive`] is the only
    /// class). Sessions are independent values (own their prepared
    /// statements and settings) and can be moved to other threads.
    pub fn session(&self, _class: TrafficClass) -> Session {
        Session {
            db: self.db.clone(),
            admission: self.admission.clone(),
            engine: Engine::Tuple,
            use_cache: true,
            feedback: false,
            prepared: HashMap::new(),
        }
    }
}

/// Why a session-level execution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// `EXECUTE name` with no statement of that name prepared in this
    /// session.
    UnknownStatement(String),
    /// Preparing or executing the statement failed (parse, lowering —
    /// including a table dropped since `PREPARE` — binding, or
    /// planning).
    Prepare(PrepareError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownStatement(name) => {
                write!(f, "no prepared statement named '{name}'")
            }
            SessionError::Prepare(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<PrepareError> for SessionError {
    fn from(e: PrepareError) -> Self {
        SessionError::Prepare(e)
    }
}

/// One prepared execution as seen by a session: the database-level
/// outcome plus how admission treated it.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Rows, cache verdict, search stats, plan cost.
    pub outcome: PreparedOutcome,
    /// `true` when this execution was admitted without a ticket and
    /// optimized greedily (under a move limit of one).
    pub degraded: bool,
}

impl SessionOutcome {
    /// The result rows (convenience).
    pub fn rows(self) -> Vec<Tuple> {
        self.outcome.rows
    }
}

/// One client's connection state: named prepared statements plus the
/// session-scoped `SET` knobs. All mutation is `&mut self` on the
/// session's own state; the shared [`Database`] is only ever touched
/// through `&self` methods, so any number of sessions run concurrently.
pub struct Session {
    db: Arc<Database>,
    admission: Arc<AdmissionControl>,
    /// `SET EXECUTOR` — tuple or vectorized.
    engine: Engine,
    /// `SET PLAN_CACHE` — `false` bypasses the shared cache for this
    /// session only.
    use_cache: bool,
    /// `SET FEEDBACK` — `true` harvests actual cardinalities from this
    /// session's executions into the shared selectivity memory.
    feedback: bool,
    prepared: HashMap<String, PreparedStatement>,
}

impl Session {
    /// The shared database this session talks to.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// `SET EXECUTOR`: choose the engine for subsequent executions.
    pub fn set_executor(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The engine subsequent executions run on.
    pub fn executor(&self) -> Engine {
        self.engine
    }

    /// `SET PLAN_CACHE`: enable/bypass the shared plan cache for this
    /// session's executions; other sessions and the cache's contents
    /// are untouched.
    pub fn set_plan_cache(&mut self, on: bool) {
        self.use_cache = on;
    }

    /// `SET FEEDBACK`: enable adaptive-feedback harvesting for this
    /// session's executions.
    pub fn set_feedback(&mut self, on: bool) {
        self.feedback = on;
    }

    /// Whether this session harvests execution feedback.
    pub fn feedback_enabled(&self) -> bool {
        self.feedback
    }

    /// `PREPARE name AS sql`: parse and parameterize, storing the
    /// statement under `name` (replacing any previous one). Returns the
    /// number of explicit `$n` parameters.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize, SessionError> {
        let stmt = self.db.prepare(sql).map_err(SessionError::Prepare)?;
        let n = stmt.param_count();
        self.prepared.insert(name.to_string(), stmt);
        Ok(n)
    }

    /// `PREPARE` from an already-parsed query (the CLI's path).
    pub fn prepare_ast(&mut self, name: &str, ast: &AstQuery) -> usize {
        let stmt = self.db.prepare_ast(ast);
        let n = stmt.param_count();
        self.prepared.insert(name.to_string(), stmt);
        n
    }

    /// `EXECUTE name (params...)` through admission control.
    pub fn execute(&self, name: &str, params: &[Value]) -> Result<SessionOutcome, SessionError> {
        let stmt = self
            .prepared
            .get(name)
            .ok_or_else(|| SessionError::UnknownStatement(name.to_string()))?;
        self.run(stmt, params, None)
    }

    /// One-shot: prepare `sql` anonymously and execute it immediately
    /// under admission control (the statement is not stored).
    pub fn query(&self, sql: &str) -> Result<SessionOutcome, SessionError> {
        let stmt = self.db.prepare(sql).map_err(SessionError::Prepare)?;
        self.run(&stmt, &[], None)
    }

    /// Execute an externally-held statement with this session's
    /// settings and admission.
    pub fn run(
        &self,
        stmt: &PreparedStatement,
        params: &[Value],
        tracer: Option<&dyn Tracer>,
    ) -> Result<SessionOutcome, SessionError> {
        // Admit first: the ticket (or the degraded verdict) covers the
        // whole optimize + execute span and is released when `admission`
        // drops at the end of this call.
        let admission = self.admission.admit();
        let mut opts = ExecOptions::new()
            .with_executor(self.engine)
            .with_cache_bypass(!self.use_cache)
            .with_feedback(self.feedback);
        opts.move_limit = admission.degraded().then_some(1);
        let outcome = self
            .db
            .execute_prepared_opts(stmt, params, &opts, tracer)
            .map_err(SessionError::Prepare)?;
        Ok(SessionOutcome {
            outcome,
            degraded: admission.degraded(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_degrades_instead_of_queueing() {
        let ctl = AdmissionControl::new(1);
        let held = ctl.admit();
        assert!(!held.degraded());
        // Ticket exhausted: the next request proceeds degraded without
        // blocking.
        let overload = ctl.admit();
        assert!(overload.degraded());
        drop(overload);
        drop(held);
        // Ticket released: full admission again.
        assert!(!ctl.admit().degraded());
        let s = ctl.stats();
        assert_eq!(s.admitted_full, 2);
        assert_eq!(s.admitted_degraded, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.peak_in_flight, 1);
    }
}
