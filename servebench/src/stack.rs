//! The served stack `tkc serve --shards 4 --workers 2` builds, started in
//! process: a 4-shard `ShardedEngine` under a 2-worker `CoreService`
//! whose pool the engine shares (as `CoreService::start_sharded` wires
//! it), behind a `TkServer` on an ephemeral loopback port, with its accept
//! loop on its own thread.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tkcore::{
    CoreService, QueryRequest, ServeSummary, ServerConfig, ServiceConfig, ShardPlan, ShardedEngine,
    TkError, TkServer,
};

use crate::gen::{self, Plan, Workload, SHARDS};

/// Service worker threads (`--workers 2`).
pub const WORKERS: usize = 2;
/// How long `stop` waits for the workers to let go of the engine.
const RELEASE_TIMEOUT: Duration = Duration::from_secs(1);
const RELEASE_GRACE: Duration = Duration::from_millis(10);

/// Stop with [`Stack::stop`]; a stack that is merely dropped leaves its
/// accept loop running until the process exits.
pub struct Stack {
    pub service: Arc<CoreService>,
    server: Arc<TkServer>,
    /// Held so the engine, which owns the shared worker pool, is released
    /// here rather than on one of the pool's own workers.
    engine: Arc<ShardedEngine>,
    acceptor: JoinHandle<Result<ServeSummary, TkError>>,
    pub addr: SocketAddr,
}

impl Stack {
    /// Set-up as a user pays it: generate the graph, start the service,
    /// bind, and warm every shard skyline and stitch entry the plan's
    /// requests use.  Returns the stack and the set-up wall time.
    pub fn start(plan: &Plan) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let config = ServiceConfig {
            workers: WORKERS,
            engine: gen::engine_config(plan.workload),
            ..ServiceConfig::default()
        };
        let engine = Arc::new(
            ShardedEngine::with_config(
                gen::em_graph(),
                ShardPlan::FixedCount(SHARDS),
                config.engine,
            )
            .map_err(|e| format!("engine start: {e}"))?,
        );
        let service = Arc::new(CoreService::over_sharded(Arc::clone(&engine), config));
        let server = Arc::new(
            TkServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?,
        );
        let addr = server.local_addr();
        let acceptor = {
            let server = Arc::clone(&server);
            // tkc-lint: allow(no-raw-threads) — the benchmark drives the server from outside, like `tkc serve`'s main thread; the handle is joined in `stop`
            std::thread::spawn(move || server.serve())
        };
        let stack = Self {
            service,
            server,
            engine,
            acceptor,
            addr,
        };
        stack.warm(plan)?;
        Ok((stack, t0.elapsed()))
    }

    fn warm(&self, plan: &Plan) -> Result<(), String> {
        for k in plan.ks() {
            self.engine().warm(k);
        }
        if plan.workload != Workload::IngestTail {
            // Boundary-stitch entries only build on a spanning query.
            for request in &plan.requests {
                let mut query = QueryRequest::sweep(request.ks(), request.start, request.end);
                query = if request.cores {
                    query.materialize()
                } else {
                    query.count()
                };
                self.service
                    .submit(query)
                    .and_then(|ticket| ticket.wait())
                    .map_err(|e| format!("warm-up request {}: {e}", request.window()))?;
            }
        }
        Ok(())
    }

    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Drains the server, joins its accept loop, drains the service, and
    /// releases the engine.
    pub fn stop(self) -> Result<ServeSummary, String> {
        let Stack {
            service,
            server,
            engine,
            acceptor,
            ..
        } = self;
        server.stop();
        let summary = acceptor
            .join()
            .map_err(|_| "the accept loop panicked".to_string())?
            .map_err(|e| format!("serve: {e}"));
        drop(server);
        drop(service);
        // Service jobs and batch helpers drop their engine references just
        // after replying.  Releasing the engine here, once they have, keeps
        // the pool from being dropped on one of its own workers, which
        // cannot join itself.
        let t0 = Instant::now();
        while Arc::strong_count(&engine) > 1 && t0.elapsed() < RELEASE_TIMEOUT {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(RELEASE_GRACE);
        drop(engine);
        summary
    }
}
