//! Optimizer-as-a-service: the request protocol and batching engine
//! behind `fusecu serve`.
//!
//! A figure binary pays the process-startup tax — parsing, preloading the
//! disk caches, warming the memo maps — on every invocation. The serve
//! daemon pays it once: a persistent process answers optimization queries
//! over a newline-delimited text protocol, backed by the same process-wide
//! sharded memo caches the binaries use, so every repeated query is a
//! cache hit and every *concurrently repeated* query is deduplicated to a
//! single computation.
//!
//! ## Protocol
//!
//! One request per line, ASCII, whitespace-separated tokens:
//!
//! ```text
//! <id> ping
//! <id> optimize-op <m> <k> <l> <bs> <model>
//! <id> plan-chain <bs> <model> <n> <m1> <k1> <l1> ... <mn> <kn> <ln>
//! <id> plan-graph <bs> <model> <nm> {<id> <m> <k> <l> <count>}* <nl> {<p> <c>}*
//! <id> score <m> <k> <l> <order> <tm> <tk> <tl> <model>
//! ```
//!
//! `<id>` is an opaque client token echoed back verbatim; `<model>` is
//! `paper` or `rw`; `<order>` is a permutation of `mkl` (outermost
//! first). Responses are one line each:
//!
//! ```text
//! <id> ok <payload>
//! <id> err <code>
//! ```
//!
//! A malformed line never kills the daemon — it produces `<id> err
//! <code>` (or `- err <code>` when even the id is missing). A request
//! whose total work `Σ count·m·k·l` over its matmuls exceeds [`MAX_WORK`]
//! is refused with `err too-large`, which keeps every memory-access sum a
//! planner forms far inside `u64`. A query whose evaluation panics is
//! answered `<id> err internal` on every line that asked it; the other
//! queries of its batch are still answered and the daemon keeps serving.
//! Responses are deterministic: the same request line always yields the
//! same response bytes, whether answered serially, in a batch, or from the
//! warm cache.
//!
//! ## Answering at read time, batching and deduplication
//!
//! A line that needs no planning — a parse error, `ping`, `score`, or a
//! memo-cache hit — is answered by [`Server::answer_now`] on the thread
//! that read it; the `serve` pump does this for every line, so a warm
//! daemon answers each line as it arrives and makes no batch. Only cache
//! misses are submitted to the batcher (and parsed again there: a few µs
//! at most, against at least 100 µs of planning).
//!
//! `answer_now` first looks the line's body (everything after the id) up
//! in the server's reply memo, which maps a body to the `ok` payload it
//! was last answered with at read time. A hit is the reply `<id>
//! <payload>`, made without parsing the body, looking it up in the plan
//! caches or formatting a payload: a warm daemon answers a repeated body
//! at the cost of one hash lookup. A body is memoized when `answer_now`
//! answers it `ok` from the plan caches (or it is `ping` or `score`); a
//! parse error, an `err internal` and a line the batcher answers are not.
//! A payload depends only on the parsed body and the plan caches never
//! change a value once set, so a memoized payload cannot go stale. The
//! memo holds at most [`REPLY_MEMO_BYTES`] of bodies and payloads: an
//! insert that would pass that first empties it.
//!
//! [`run_batch_loop`] group-commits: it blocks for the first request, takes
//! every request already queued behind it (up to `max_batch`) as one
//! batch, answers it, and repeats. There is no timer: a batch is whatever
//! queued while the previous one was being answered, so load builds
//! batches and a lone request on an idle daemon is answered at once.
//!
//! A batch is deduplicated on the parsed [`Request`] (two bodies parse to
//! equal requests exactly when their canonical encodings are equal, since
//! [`Request::canonical`] prints every field). Each distinct query that
//! needs no planning — one that became a cache hit since it was read,
//! `ping` or `score` — is answered on the batch thread; only the misses fan
//! out through the parallel engine. The answers go back out in submission
//! order, so N identical in-flight misses cost one computation *and* one
//! cache insertion (a duplicate that lands in a later batch, or is read
//! after the first is planned, is a cache hit). Because replies leave in
//! submission order and one batch is answered before the next starts, a
//! client may clone one reply [`Sender`] into all of its submissions and
//! read its replies back in request order: the `serve` binary keeps one
//! such reply stream per client, beside the replies it made at read time.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use fusecu_dataflow::{CostModel, Dataflow, LoopNest, MemoCache, SectionCounters, Tiling};
use fusecu_fusion::graph_planner::{try_plan_dag_cached, try_plan_dag_if_cached, GraphPlan};
use fusecu_fusion::planner::{try_plan_chain_cached, try_plan_chain_if_cached, ChainPlan};
use fusecu_ir::{FuseLink, MatMul, MmChain, MmDag, MmDim, NodeId};
use fusecu_search::{par_map, DataflowCache, Parallelism};

/// Largest matmul chain a `plan-chain` request may carry.
pub const MAX_CHAIN_OPS: usize = 64;
/// Largest node count a `plan-graph` request may carry.
pub const MAX_GRAPH_NODES: usize = 64;
/// Largest link count a `plan-graph` request may carry.
pub const MAX_GRAPH_LINKS: usize = 256;
/// Largest accepted matmul dimension (keeps a single query's work bounded).
pub const MAX_DIM: u64 = 1 << 24;
/// Largest accepted buffer size in elements.
pub const MAX_BUFFER: u64 = 1 << 40;
/// Largest accepted total work of one request, `Σ count·m·k·l` over its
/// matmuls (a count of 1 outside `plan-graph`). [`MAX_DIM`] alone admits
/// `m·k·l` up to 2^72, but costs are `u64` element counts: any nest's
/// memory access is below `4·m·k·l`, so under this cap every sum a planner
/// forms stays at least 2^14 below `u64::MAX`. LLaMA2's prefill graph, the
/// largest zoo query, is about 2^43.5.
pub const MAX_WORK: u64 = 1 << 48;
/// Longest request line a transport reads, in bytes before its newline:
/// far above the largest valid request (a 64-node `plan-graph` with 256
/// links is about 4 KiB). `serve` answers a longer line `err too-large`
/// without holding more than this much of it.
pub const MAX_LINE_BYTES: usize = 1 << 20;
/// Bytes of request bodies plus payloads a [`Server`]'s reply memo holds
/// before an insert that would pass this empties it: about 26 times the
/// 40 KB the 426-query warm catalog memoizes. A body longer than this on
/// its own is never memoized. The map's own bookkeeping (a cell and two
/// allocations per entry) comes on top.
pub const REPLY_MEMO_BYTES: usize = 1 << 20;

/// A parsed, validated request body (everything after the id token).
///
/// Equality (and the hash batches deduplicate on) is exactly equality of
/// [`Request::canonical`]: every field of every variant is printed there.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    /// Liveness probe; answered without touching the optimizer.
    Ping,
    /// One-shot principle-optimized dataflow for a single matmul.
    OptimizeOp {
        /// The matmul shape.
        mm: MatMul,
        /// Buffer size in elements.
        bs: u64,
        /// Cost model.
        model: CostModel,
    },
    /// Optimal k-ary fusion plan for a linear matmul chain.
    PlanChain {
        /// The chain, producer to consumer.
        chain: MmChain,
        /// Buffer size in elements.
        bs: u64,
        /// Cost model.
        model: CostModel,
    },
    /// Whole-graph fusion plan for a matmul DAG.
    PlanGraph {
        /// The DAG (validated by [`MmDag::from_parts`]).
        dag: MmDag,
        /// Buffer size in elements.
        bs: u64,
        /// Cost model.
        model: CostModel,
    },
    /// Memory access of one explicit dataflow (pure evaluation, uncached).
    Score {
        /// The matmul shape.
        mm: MatMul,
        /// Loop nest to score.
        nest: LoopNest,
        /// Cost model.
        model: CostModel,
    },
}

/// Why a request line was rejected. The wire code is
/// [`ParseError::code`]; every variant is a client error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The line had no request body after the id.
    Empty,
    /// Unknown verb token.
    BadVerb,
    /// Wrong token count or a token that failed to parse as a number.
    BadToken,
    /// A dimension, tile, count, or buffer size outside its valid range.
    BadRange,
    /// Unknown cost-model token (must be `paper` or `rw`).
    BadModel,
    /// `<order>` was not a permutation of `mkl`.
    BadOrder,
    /// Chain shapes do not compose producer-to-consumer.
    BadChain,
    /// Graph nodes/links violate a DAG invariant.
    BadGraph,
    /// A size field, or the request's total work, exceeded the protocol
    /// limit.
    TooLarge,
}

impl ParseError {
    /// The wire token sent back as `<id> err <code>`.
    pub fn code(self) -> &'static str {
        match self {
            ParseError::Empty => "empty",
            ParseError::BadVerb => "bad-verb",
            ParseError::BadToken => "bad-token",
            ParseError::BadRange => "bad-range",
            ParseError::BadModel => "bad-model",
            ParseError::BadOrder => "bad-order",
            ParseError::BadChain => "bad-chain",
            ParseError::BadGraph => "bad-graph",
            ParseError::TooLarge => "too-large",
        }
    }
}

fn parse_u64(tok: Option<&str>) -> Result<u64, ParseError> {
    tok.ok_or(ParseError::BadToken)?
        .parse::<u64>()
        .map_err(|_| ParseError::BadToken)
}

fn parse_usize(tok: Option<&str>) -> Result<usize, ParseError> {
    tok.ok_or(ParseError::BadToken)?
        .parse::<usize>()
        .map_err(|_| ParseError::BadToken)
}

fn parse_dim(tok: Option<&str>) -> Result<u64, ParseError> {
    let v = parse_u64(tok)?;
    if v == 0 || v > MAX_DIM {
        return Err(ParseError::BadRange);
    }
    Ok(v)
}

fn parse_mm(toks: &mut std::str::SplitWhitespace<'_>) -> Result<MatMul, ParseError> {
    let m = parse_dim(toks.next())?;
    let k = parse_dim(toks.next())?;
    let l = parse_dim(toks.next())?;
    Ok(MatMul::new(m, k, l))
}

fn parse_bs(tok: Option<&str>) -> Result<u64, ParseError> {
    let v = parse_u64(tok)?;
    // Three elements is the principle optimizer's hard floor (one live
    // element per tensor).
    if !(3..=MAX_BUFFER).contains(&v) {
        return Err(ParseError::BadRange);
    }
    Ok(v)
}

fn parse_model(tok: Option<&str>) -> Result<CostModel, ParseError> {
    match tok {
        Some("paper") => Ok(CostModel::paper()),
        Some("rw") => Ok(CostModel::read_write()),
        _ => Err(ParseError::BadModel),
    }
}

/// The wire token of a cost model (`paper` / `rw`).
pub fn model_token(model: &CostModel) -> &'static str {
    if *model == CostModel::paper() {
        "paper"
    } else {
        "rw"
    }
}

fn dim_char(d: MmDim) -> char {
    match d {
        MmDim::M => 'm',
        MmDim::K => 'k',
        MmDim::L => 'l',
    }
}

fn parse_order(tok: Option<&str>) -> Result<[MmDim; 3], ParseError> {
    let tok = tok.ok_or(ParseError::BadToken)?;
    let mut order = [MmDim::M; 3];
    if tok.len() != 3 {
        return Err(ParseError::BadOrder);
    }
    for (slot, c) in order.iter_mut().zip(tok.chars()) {
        *slot = match c {
            'm' => MmDim::M,
            'k' => MmDim::K,
            'l' => MmDim::L,
            _ => return Err(ParseError::BadOrder),
        };
    }
    if order[0] == order[1] || order[0] == order[2] || order[1] == order[2] {
        return Err(ParseError::BadOrder);
    }
    Ok(order)
}

impl Request {
    /// Parses a request body (the line after the id token has been split
    /// off). Every byte of the body is consumed; trailing tokens are an
    /// error.
    pub fn parse(body: &str) -> Result<Request, ParseError> {
        let mut toks = body.split_whitespace();
        let verb = toks.next().ok_or(ParseError::Empty)?;
        let req = match verb {
            "ping" => Request::Ping,
            "optimize-op" => {
                let mm = parse_mm(&mut toks)?;
                let bs = parse_bs(toks.next())?;
                let model = parse_model(toks.next())?;
                Request::OptimizeOp { mm, bs, model }
            }
            "plan-chain" => {
                let bs = parse_bs(toks.next())?;
                let model = parse_model(toks.next())?;
                let n = parse_usize(toks.next())?;
                if n == 0 {
                    return Err(ParseError::BadRange);
                }
                if n > MAX_CHAIN_OPS {
                    return Err(ParseError::TooLarge);
                }
                let mut mms = Vec::with_capacity(n);
                for _ in 0..n {
                    mms.push(parse_mm(&mut toks)?);
                }
                let chain = MmChain::try_new(mms).map_err(|_| ParseError::BadChain)?;
                Request::PlanChain { chain, bs, model }
            }
            "plan-graph" => {
                let bs = parse_bs(toks.next())?;
                let model = parse_model(toks.next())?;
                let nm = parse_usize(toks.next())?;
                if nm == 0 {
                    return Err(ParseError::BadRange);
                }
                if nm > MAX_GRAPH_NODES {
                    return Err(ParseError::TooLarge);
                }
                let mut mms = Vec::with_capacity(nm);
                for _ in 0..nm {
                    let id = parse_usize(toks.next())?;
                    let mm = parse_mm(&mut toks)?;
                    let count = parse_u64(toks.next())?;
                    if count == 0 || count > MAX_DIM {
                        return Err(ParseError::BadRange);
                    }
                    mms.push((NodeId(id), mm, count));
                }
                let nl = parse_usize(toks.next())?;
                if nl > MAX_GRAPH_LINKS {
                    return Err(ParseError::TooLarge);
                }
                let mut links = Vec::with_capacity(nl);
                for _ in 0..nl {
                    let producer = parse_usize(toks.next())?;
                    let consumer = parse_usize(toks.next())?;
                    links.push(FuseLink { producer, consumer });
                }
                let dag = MmDag::from_parts(mms, links).ok_or(ParseError::BadGraph)?;
                Request::PlanGraph { dag, bs, model }
            }
            "score" => {
                let mm = parse_mm(&mut toks)?;
                let order = parse_order(toks.next())?;
                let tm = parse_dim(toks.next())?;
                let tk = parse_dim(toks.next())?;
                let tl = parse_dim(toks.next())?;
                let model = parse_model(toks.next())?;
                Request::Score {
                    mm,
                    nest: LoopNest::new(order, Tiling::new(tm, tk, tl)),
                    model,
                }
            }
            _ => return Err(ParseError::BadVerb),
        };
        if toks.next().is_some() {
            return Err(ParseError::BadToken);
        }
        if req.work() > u128::from(MAX_WORK) {
            return Err(ParseError::TooLarge);
        }
        Ok(req)
    }

    /// `Σ count·m·k·l` over the request's matmuls, exact: dimensions and
    /// counts are at most 2^24 and there are at most 64 matmuls.
    fn work(&self) -> u128 {
        let mkl = |mm: &MatMul| u128::from(mm.m()) * u128::from(mm.k()) * u128::from(mm.l());
        match self {
            Request::Ping => 0,
            Request::OptimizeOp { mm, .. } | Request::Score { mm, .. } => mkl(mm),
            Request::PlanChain { chain, .. } => chain.mms().iter().map(mkl).sum(),
            Request::PlanGraph { dag, .. } => dag
                .mms()
                .iter()
                .map(|(_, mm, count)| mkl(mm) * u128::from(*count))
                .sum(),
        }
    }

    /// The canonical wire encoding of the body — what [`Request::parse`]
    /// round-trips to. Two lines with different ids but the same canonical
    /// body are the same query: they parse to equal requests, which is
    /// what batches deduplicate on.
    pub fn canonical(&self) -> String {
        match self {
            Request::Ping => "ping".to_string(),
            Request::OptimizeOp { mm, bs, model } => format!(
                "optimize-op {} {} {} {bs} {}",
                mm.m(),
                mm.k(),
                mm.l(),
                model_token(model)
            ),
            Request::PlanChain { chain, bs, model } => {
                let mut s = format!("plan-chain {bs} {} {}", model_token(model), chain.mms().len());
                for mm in chain.mms() {
                    let _ = write!(s, " {} {} {}", mm.m(), mm.k(), mm.l());
                }
                s
            }
            Request::PlanGraph { dag, bs, model } => {
                let mut s = format!("plan-graph {bs} {} {}", model_token(model), dag.mms().len());
                for (id, mm, count) in dag.mms() {
                    let _ = write!(s, " {} {} {} {} {count}", id.0, mm.m(), mm.k(), mm.l());
                }
                let _ = write!(s, " {}", dag.links().len());
                for link in dag.links() {
                    let _ = write!(s, " {} {}", link.producer, link.consumer);
                }
                s
            }
            Request::Score { mm, nest, model } => {
                let order: String = nest.order.iter().map(|&d| dim_char(d)).collect();
                format!(
                    "score {} {} {} {order} {} {} {} {}",
                    mm.m(),
                    mm.k(),
                    mm.l(),
                    nest.tiling.tile(MmDim::M),
                    nest.tiling.tile(MmDim::K),
                    nest.tiling.tile(MmDim::L),
                    model_token(model)
                )
            }
        }
    }
}

/// Monotonic counters of one [`Server`]'s lifetime, all lock-free. The
/// reply memo keeps its own ([`Server::replies`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Request lines received (well-formed or not), each counted once:
    /// when it is answered at read time, or by the batch that takes it.
    pub requests: AtomicU64,
    /// Lines rejected with an `err` response.
    pub parse_errors: AtomicU64,
    /// Batches dispatched. A daemon whose every line is answered at read
    /// time (a warm one) makes none.
    pub batches: AtomicU64,
    /// Requests answered by batch-level deduplication: a duplicate of a
    /// query in the same batch, which only misses reach (cache hits are
    /// counted by the caches themselves).
    pub deduped: AtomicU64,
    /// Queries answered by evaluation: each line answered at read time
    /// that parsed (or whose body the reply memo held), and each distinct
    /// query of a batch.
    pub computed: AtomicU64,
    /// Queries answered without planning — reply-memo hits, cache hits,
    /// `ping` and `score`: each such line answered at read time, and each
    /// such distinct query of a batch. A reply-memo hit is counted here
    /// and by [`Server::replies`], and by no plan cache.
    pub inline: AtomicU64,
    /// Distinct batch queries that missed the cache and were planned
    /// through the parallel engine.
    pub fanned_out: AtomicU64,
}

impl ServerStats {
    /// One-line JSON rendering for the daemon's `stats` verb.
    pub fn json(&self) -> String {
        format!(
            "{{\"requests\":{},\"parse_errors\":{},\"batches\":{},\"deduped\":{},\"computed\":{},\"inline\":{},\"fanned_out\":{}}}",
            self.requests.load(Ordering::Relaxed),
            self.parse_errors.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.deduped.load(Ordering::Relaxed),
            self.computed.load(Ordering::Relaxed),
            self.inline.load(Ordering::Relaxed),
            self.fanned_out.load(Ordering::Relaxed),
        )
    }
}

/// The optimizer service: request evaluation over the process-wide memo
/// caches, batch dedup, and a reply memo for [`Server::answer_now`]. Cheap
/// to share behind an [`Arc`]; its own state is the reply memo and the
/// atomic counters.
#[derive(Debug)]
pub struct Server {
    parallelism: Parallelism,
    stats: ServerStats,
    /// Request body (the line after its id) to the `ok` payload
    /// [`Server::answer_now`] answered it with. A payload depends only on
    /// the parsed body, and the plan caches never change a value once set,
    /// so a memoized payload cannot go stale.
    replies: MemoCache<Box<str>, Box<str>>,
    /// Bytes of bodies plus payloads in `replies`, at most
    /// [`REPLY_MEMO_BYTES`]; held across each insert and eviction, so it
    /// is exact.
    reply_bytes: Mutex<usize>,
}

impl Server {
    /// A server evaluating batch misses under the given work-distribution
    /// policy.
    pub fn new(parallelism: Parallelism) -> Server {
        Server {
            parallelism,
            stats: ServerStats::default(),
            replies: MemoCache::new(),
            reply_bytes: Mutex::new(0),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The reply memo's counters: a hit is a line [`Server::answer_now`]
    /// answered from it, a miss a body it memoized.
    pub fn replies(&self) -> SectionCounters {
        self.replies.counters("replies")
    }

    /// Evaluates one parsed request to its `ok ...` payload. Deterministic
    /// and total: every valid request has exactly one answer.
    pub fn eval(&self, req: &Request) -> String {
        let mut payload = String::with_capacity(PAYLOAD_CAPACITY);
        self.eval_into(req, &mut payload);
        payload
    }

    /// Appends [`Server::eval`]'s payload to `out`.
    fn eval_into(&self, req: &Request, out: &mut String) {
        match req {
            Request::Ping => out.push_str("ok pong"),
            Request::OptimizeOp { mm, bs, model } => {
                op_payload(out, DataflowCache::global().principle(model, *mm, *bs))
            }
            Request::PlanChain { chain, bs, model } => {
                chain_payload(out, try_plan_chain_cached(model, chain, *bs).as_ref())
            }
            Request::PlanGraph { dag, bs, model } => {
                graph_payload(out, try_plan_dag_cached(model, dag, *bs).as_ref())
            }
            Request::Score { mm, nest, model } => {
                let _ = write!(out, "ok ma {}", model.evaluate(*mm, nest).total());
            }
        }
    }

    /// [`Server::eval_into`] of a request that needs no planning: `ping`,
    /// `score`, or a query whose result is already cached (counted as the
    /// hit `eval` would count). `false` on a cache miss, with nothing
    /// computed, counted or written, leaves the query to `eval`.
    fn eval_if_cached(&self, req: &Request, out: &mut String) -> bool {
        match req {
            Request::OptimizeOp { mm, bs, model } => DataflowCache::global()
                .principle_if_cached(model, *mm, *bs)
                .map(|df| op_payload(out, df))
                .is_some(),
            Request::PlanChain { chain, bs, model } => {
                try_plan_chain_if_cached(model, chain, *bs, |plan| chain_payload(out, plan))
                    .is_some()
            }
            Request::PlanGraph { dag, bs, model } => {
                try_plan_dag_if_cached(model, dag, *bs, |plan| graph_payload(out, plan)).is_some()
            }
            Request::Ping | Request::Score { .. } => {
                self.eval_into(req, out);
                true
            }
        }
    }

    /// Answers one raw request line (`<id> <verb> ...`) serially — the
    /// reference path batches must match byte-for-byte.
    pub fn answer_line(&self, line: &str) -> String {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        match self.parse_line(line) {
            Ok((id, req)) => {
                self.stats.computed.fetch_add(1, Ordering::Relaxed);
                let mut reply = reply_head(id);
                isolated(&mut reply, |out| self.eval_into(&req, out));
                reply
            }
            Err(reply) => reply,
        }
    }

    /// Answers one raw request line now if that needs no planning — a
    /// parse error, `ping`, `score`, or a memo-cache hit — with the bytes
    /// [`Server::answer_line`] would answer, counted as it would count
    /// them and, unless the line failed to parse, as `inline`. `None` on a
    /// cache miss, with nothing computed or counted: the line is for
    /// [`Server::answer_batch`], which parses and counts it then. The
    /// `serve` pump calls this on every request line it reads.
    ///
    /// It first looks the line's body up in the reply memo. A hit is
    /// `<id> <payload>` with no parse, no plan-cache lookup and no
    /// formatting, counted as a `replies` hit in place of the plan-cache
    /// hit. Otherwise the line is parsed and answered from the plan caches,
    /// and an `ok` answer is memoized; a parse error or `err internal`
    /// never is.
    pub fn answer_now(&self, line: &str) -> Option<String> {
        self.answer_now_with(line, |req, out| self.eval_if_cached(req, out))
    }

    /// [`Server::answer_now`] with a parsed request answered by `cached`,
    /// which writes its payload and returns `true`, or returns `false` on
    /// a miss.
    fn answer_now_with(
        &self,
        line: &str,
        cached: impl FnOnce(&Request, &mut String) -> bool,
    ) -> Option<String> {
        let reply = match split_line(line) {
            Some((id, body)) => match self.replies.get(body, |payload| reply_head(id) + payload) {
                Some(reply) => {
                    self.stats.computed.fetch_add(1, Ordering::Relaxed);
                    self.stats.inline.fetch_add(1, Ordering::Relaxed);
                    reply
                }
                None => match self.parse_body(id, body) {
                    Ok(req) => {
                        let mut reply = reply_head(id);
                        match isolated(&mut reply, |out| cached(&req, out)) {
                            Some(false) => return None,
                            Some(true) => self.memoize(body, &reply[id.len() + 1..]),
                            None => {}
                        }
                        self.stats.computed.fetch_add(1, Ordering::Relaxed);
                        self.stats.inline.fetch_add(1, Ordering::Relaxed);
                        reply
                    }
                    Err(reply) => reply,
                },
            },
            None => self.empty_line(),
        };
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        Some(reply)
    }

    /// Puts `body`'s `ok` payload in the reply memo, first emptying the
    /// memo if the pair would take it past [`REPLY_MEMO_BYTES`].
    fn memoize(&self, body: &str, payload: &str) {
        let size = body.len() + payload.len();
        if size > REPLY_MEMO_BYTES {
            return;
        }
        let mut held = self.reply_bytes.lock().expect("reply memo size poisoned");
        if *held + size > REPLY_MEMO_BYTES {
            self.replies.evict_all();
            *held = 0;
        }
        if self.replies.insert(body.into(), payload.into()) {
            *held += size;
        }
    }

    /// Splits a raw line into its id (the first token) and parsed body
    /// (the rest), or returns the `err` reply for it (counted as a parse
    /// error).
    fn parse_line<'a>(&self, line: &'a str) -> Result<(&'a str, Request), String> {
        match split_line(line) {
            Some((id, body)) => self.parse_body(id, body).map(|req| (id, req)),
            None => Err(self.empty_line()),
        }
    }

    /// The parsed `body` of the line with id `id`, or the `err` reply for
    /// it (counted as a parse error).
    fn parse_body(&self, id: &str, body: &str) -> Result<Request, String> {
        Request::parse(body).map_err(|e| {
            self.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            format!("{id} err {}", e.code())
        })
    }

    /// The reply to a line with no id, counted as a parse error.
    fn empty_line(&self) -> String {
        self.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
        "- err empty".to_string()
    }

    /// Answers a batch of raw request lines, deduplicating on the parsed
    /// request so N identical in-flight queries cost one computation.
    /// Distinct queries that need no planning are answered on the calling
    /// thread; only cache misses fan out across workers. Responses are
    /// positionally aligned with `lines` and byte-identical to answering
    /// each line through [`Server::answer_line`].
    pub fn answer_batch(&self, lines: &[String]) -> Vec<String> {
        self.answer_batch_with(
            lines,
            |req, out| self.eval_if_cached(req, out),
            |req, out| self.eval_into(req, out),
        )
    }

    /// [`Server::answer_batch`] with each distinct query answered by
    /// `cached` on the calling thread, or, where that returns `false`, by
    /// `eval` through the parallel engine.
    fn answer_batch_with(
        &self,
        lines: &[String],
        cached: impl Fn(&Request, &mut String) -> bool,
        eval: impl Fn(&Request, &mut String) + Sync,
    ) -> Vec<String> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .requests
            .fetch_add(lines.len() as u64, Ordering::Relaxed);

        let parsed: Vec<Result<(&str, Request), String>> =
            lines.iter().map(|line| self.parse_line(line)).collect();
        // The distinct queries in first-seen order, and for each parsed
        // line the index of the one answering it.
        let mut index: HashMap<&Request, usize> = HashMap::with_capacity(parsed.len());
        let mut uniques: Vec<&Request> = Vec::new();
        let slots: Vec<usize> = parsed
            .iter()
            .filter_map(|p| p.as_ref().ok())
            .map(|(_, req)| {
                *index.entry(req).or_insert_with(|| {
                    uniques.push(req);
                    uniques.len() - 1
                })
            })
            .collect();
        self.stats
            .deduped
            .fetch_add((slots.len() - uniques.len()) as u64, Ordering::Relaxed);
        self.stats
            .computed
            .fetch_add(uniques.len() as u64, Ordering::Relaxed);

        // Answer what needs no planning here; fan only the misses out.
        let mut answers: Vec<Option<String>> = uniques
            .iter()
            .map(|req| {
                let mut payload = String::with_capacity(PAYLOAD_CAPACITY);
                let hit = isolated(&mut payload, |out| cached(req, out)) != Some(false);
                hit.then_some(payload)
            })
            .collect();
        let misses: Vec<usize> = (0..uniques.len())
            .filter(|&u| answers[u].is_none())
            .collect();
        self.stats
            .inline
            .fetch_add((uniques.len() - misses.len()) as u64, Ordering::Relaxed);
        self.stats
            .fanned_out
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        let planned = par_map(self.parallelism, &misses, |_, &u| {
            let mut payload = String::with_capacity(PAYLOAD_CAPACITY);
            isolated(&mut payload, |out| eval(uniques[u], out));
            payload
        });
        for (u, answer) in misses.into_iter().zip(planned) {
            answers[u] = Some(answer);
        }

        let mut slots = slots.into_iter();
        parsed
            .into_iter()
            .map(|p| match p {
                Ok((id, _)) => {
                    let unique = slots.next().expect("one slot per parsed line");
                    let answer = answers[unique].as_deref().expect("every query answered");
                    let mut reply = reply_head(id);
                    reply.push_str(answer);
                    reply
                }
                Err(reply) => reply,
            })
            .collect()
    }
}

/// Bytes reserved for a reply's payload: the longest `ok` payload, an
/// `optimize-op` one with a 20-digit memory access and 8-digit tiles, is
/// 69 bytes.
const PAYLOAD_CAPACITY: usize = 72;

/// A line's id (its first token) and body (the rest, from its second
/// token on): what `trim()` then `split_once(char::is_whitespace)` splits
/// it into, with the body's leading whitespace trimmed. A line of one
/// token has the empty body; a blank line has no id.
fn split_line(line: &str) -> Option<(&str, &str)> {
    let line = line.trim();
    match line.split_once(char::is_whitespace) {
        Some((id, body)) => Some((id, body.trim_start())),
        None => (!line.is_empty()).then_some((line, "")),
    }
}

/// A reply line's `<id> `, with room for its payload.
fn reply_head(id: &str) -> String {
    let mut reply = String::with_capacity(id.len() + 1 + PAYLOAD_CAPACITY);
    reply.push_str(id);
    reply.push(' ');
    reply
}

/// Appends the `optimize-op` payload of a principle optimum to `out`.
fn op_payload(out: &mut String, df: Option<Dataflow>) {
    match df {
        Some(df) => {
            let [a, b, c] = df.nest().order.map(dim_char);
            let t = df.tiling();
            let _ = write!(
                out,
                "ok ma {} order {a}{b}{c} tiles {} {} {}",
                df.total_ma(),
                t.tile(MmDim::M),
                t.tile(MmDim::K),
                t.tile(MmDim::L)
            );
        }
        None => out.push_str("ok infeasible"),
    }
}

/// Appends the `plan-chain` payload of a chain plan to `out`.
fn chain_payload(out: &mut String, plan: Option<&ChainPlan>) {
    match plan {
        Some(plan) => {
            let _ = write!(
                out,
                "ok ma {} steps {} fused {}",
                plan.total_ma(),
                plan.steps().len(),
                plan.fused_pair_count()
            );
        }
        None => out.push_str("ok infeasible"),
    }
}

/// Appends the `plan-graph` payload of a whole-graph plan to `out`.
fn graph_payload(out: &mut String, plan: Option<&GraphPlan>) {
    match plan {
        Some(plan) => {
            let _ = write!(
                out,
                "ok ma {} steps {} fused {} depth {}",
                plan.total_ma(),
                plan.steps().len(),
                plan.fused_step_count(),
                plan.max_fusion_depth()
            );
        }
        None => out.push_str("ok infeasible"),
    }
}

/// Runs `answer` on `out`, or, if it panics, puts `err internal` in place
/// of whatever it wrote and returns `None`: a panic in one query must not
/// cost the rest of its batch (or the daemon) their answers. The memo
/// caches stay consistent: a panicking computation leaves its cell empty,
/// and no shard lock is held while it runs.
fn isolated<T>(out: &mut String, answer: impl FnOnce(&mut String) -> T) -> Option<T> {
    let head = out.len();
    let result = catch_unwind(AssertUnwindSafe(|| answer(out)));
    if result.is_err() {
        out.truncate(head);
        out.push_str("err internal");
    }
    result.ok()
}

/// Tuning knobs of the batching front-end.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Hard cap on requests per batch. A batch takes at most this many of
    /// the requests already queued; the rest wait for the next batch.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { max_batch: 1024 }
    }
}

/// One queued request: the raw line plus the channel its response goes
/// back on.
#[derive(Debug)]
pub struct Submission {
    /// The raw request line.
    pub line: String,
    /// Where the response line is sent. Submissions may share one
    /// sender: each batch replies in submission order.
    pub reply: Sender<String>,
}

/// The batching front-end, a group commit: blocks for the first request,
/// takes every request already queued behind it (up to `max_batch`),
/// answers the batch with dedup, sends the responses back in submission
/// order, and repeats. It never waits for more requests to arrive.
/// Returns when every submission sender has been dropped.
pub fn run_batch_loop(server: &Server, cfg: BatchConfig, rx: &Receiver<Submission>) {
    batch_loop(cfg, rx, |lines| server.answer_batch(lines));
}

/// [`run_batch_loop`] with each batch answered by `answer`.
fn batch_loop(
    cfg: BatchConfig,
    rx: &Receiver<Submission>,
    answer: impl Fn(&[String]) -> Vec<String>,
) {
    while let Ok(first) = rx.recv() {
        let queued = rx.try_iter().take(cfg.max_batch.saturating_sub(1));
        let (lines, replies): (Vec<String>, Vec<Sender<String>>) = std::iter::once(first)
            .chain(queued)
            .map(|s| (s.line, s.reply))
            .unzip();
        for (reply, resp) in replies.iter().zip(answer(&lines)) {
            // A client that hung up just loses its answer.
            let _ = reply.send(resp);
        }
    }
}

/// Spawns the batch loop on its own thread and returns the submission
/// sink. Drop every clone of the sender to stop the loop; join the handle
/// to wait for it.
pub fn spawn_frontend(
    server: Arc<Server>,
    cfg: BatchConfig,
) -> (Sender<Submission>, std::thread::JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::channel::<Submission>();
    let handle = std::thread::spawn(move || run_batch_loop(&server, cfg, &rx));
    (tx, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn server() -> Server {
        Server::new(Parallelism::Serial)
    }

    #[test]
    fn parse_round_trips_canonical() {
        for body in [
            "ping",
            "optimize-op 1024 768 768 524288 paper",
            "plan-chain 524288 rw 2 128 64 32 128 32 96",
            "plan-graph 32768 paper 2 0 64 64 64 1 1 64 64 64 1 1 0 1",
            "score 64 64 64 mkl 16 64 8 rw",
        ] {
            let req = Request::parse(body).unwrap();
            assert_eq!(req.canonical(), body);
            assert_eq!(Request::parse(&req.canonical()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_lines_error_not_panic() {
        let s = server();
        for line in [
            "",
            "1",
            "1 frobnicate",
            "1 optimize-op 0 1 1 1024 paper",
            "1 optimize-op 8 8 8 2 paper",
            "1 optimize-op 8 8 8 1024 quantum",
            "1 plan-chain 1024 paper 2 8 8 8 9 9 9",
            "1 plan-graph 1024 paper 1 0 8 8 8 1 1 0 0",
            "1 score 8 8 8 mmm 1 1 1 paper",
            "1 score 8 8 8 mkl 0 1 1 paper",
            "1 optimize-op 8 8 8 1024 paper trailing",
        ] {
            let resp = s.answer_line(line);
            assert!(resp.contains(" err "), "{line:?} -> {resp}");
        }
        assert_eq!(s.stats().parse_errors.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn batch_matches_serial_and_dedups() {
        let lines: Vec<String> = vec![
            "1 optimize-op 256 128 64 32768 paper".into(),
            "2 optimize-op 256 128 64 32768 paper".into(),
            "3 score 64 64 64 klm 8 8 8 rw".into(),
            "4 bad-verb-here".into(),
            "5 optimize-op 256 128 64 32768 paper".into(),
        ];
        let batch = server();
        let got = batch.answer_batch(&lines);
        let serial = server();
        let want: Vec<String> = lines.iter().map(|l| serial.answer_line(l)).collect();
        assert_eq!(got, want);
        // ids echo through; identical bodies answered identically.
        assert!(got[0].starts_with("1 ok ma "));
        assert_eq!(got[0].split_once(' ').unwrap().1, got[1].split_once(' ').unwrap().1);
        assert_eq!(got[0].split_once(' ').unwrap().1, got[4].split_once(' ').unwrap().1);
        // Three copies of one query -> 2 deduped; uniques are the
        // optimize-op and the score -> 2 computed.
        assert_eq!(batch.stats().deduped.load(Ordering::Relaxed), 2);
        assert_eq!(batch.stats().computed.load(Ordering::Relaxed), 2);
        assert_eq!(batch.stats().parse_errors.load(Ordering::Relaxed), 1);
    }

    /// Queues `lines` on a fresh submission channel, all replying on one
    /// stream, and closes the channel.
    fn queued(lines: impl IntoIterator<Item = String>) -> (Receiver<Submission>, Receiver<String>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        for line in lines {
            let reply = reply_tx.clone();
            tx.send(Submission { line, reply }).unwrap();
        }
        (rx, reply_rx)
    }

    #[test]
    fn frontend_coalesces_and_replies() {
        let server = server();
        // All 8 are queued before the loop starts, so its first batch
        // takes every one of them; the loop returns once the queue is
        // drained and its sender gone.
        let (rx, replies) = queued((0..8).map(|i| format!("{i} optimize-op 128 64 32 16384 rw")));
        run_batch_loop(&server, BatchConfig::default(), &rx);
        let responses: Vec<String> = replies.try_iter().collect();
        assert_eq!(responses.len(), 8);
        let payload = responses[0].split_once(' ').unwrap().1;
        assert!(payload.starts_with("ok ma "), "{payload}");
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(*r, format!("{i} {payload}"), "replies in submission order");
        }
        assert_eq!(server.stats().batches.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().deduped.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn a_batch_takes_at_most_max_batch_of_the_queue() {
        let server = server();
        let (rx, replies) = queued((0..5).map(|i| format!("{i} ping")));
        run_batch_loop(&server, BatchConfig { max_batch: 2 }, &rx);
        let want: Vec<String> = (0..5).map(|i| format!("{i} ok pong")).collect();
        assert_eq!(replies.try_iter().collect::<Vec<_>>(), want);
        assert_eq!(server.stats().batches.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_panicking_query_is_isolated_and_the_frontend_keeps_serving() {
        let s = &server();
        // One query answered from the cache and one that must be planned,
        // both unique to this test, so the second stays a miss.
        let warm = Request::parse("optimize-op 48 40 24 2048 paper").unwrap();
        let cold = Request::parse("optimize-op 61 59 53 4093 rw").unwrap();
        s.eval(&warm);
        let boom =
            |req: &Request| matches!(req, Request::Score { .. }) || *req == warm || *req == cold;
        let (hit_panics, miss_panics) = (&AtomicU64::new(0), &AtomicU64::new(0));
        let cached = |req: &Request, out: &mut String| {
            let hit = s.eval_if_cached(req, out);
            if hit && boom(req) {
                hit_panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected panic on the hit path");
            }
            hit
        };
        let planned = |req: &Request, out: &mut String| {
            if boom(req) {
                miss_panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected panic on the miss path");
            }
            s.eval_into(req, out)
        };
        let (tx, rx) = std::sync::mpsc::channel::<Submission>();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let round_trip = |tx: &Sender<Submission>, lines: &[&str]| -> Vec<String> {
            for line in lines {
                let sub = Submission {
                    line: line.to_string(),
                    reply: reply_tx.clone(),
                };
                tx.send(sub).expect("batch loop alive");
            }
            lines
                .iter()
                .map(|_| {
                    reply_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("a reply per line")
                })
                .collect()
        };
        std::thread::scope(|scope| {
            scope.spawn(move || {
                batch_loop(BatchConfig::default(), &rx, |lines| {
                    s.answer_batch_with(lines, cached, planned)
                })
            });
            let first = [
                "1 score 8 8 8 mkl 1 1 1 rw",
                "2 ping",
                "3 score 8 8 8 mkl 1 1 1 rw",
                "4 nonsense",
            ];
            assert_eq!(
                round_trip(&tx, &first),
                [
                    "1 err internal",
                    "2 ok pong",
                    "3 err internal",
                    "4 err bad-verb"
                ]
            );
            // The batch loop survived: a later batch is answered normally.
            let next = ["5 optimize-op 64 32 16 1024 rw", "6 ping"];
            let want: Vec<String> = next.iter().map(|l| server().answer_line(l)).collect();
            assert_eq!(round_trip(&tx, &next), want);
            // A panic on either path answers `err internal`.
            let both = [
                "7 optimize-op 48 40 24 2048 paper",
                "8 optimize-op 61 59 53 4093 rw",
                "9 ping",
            ];
            assert_eq!(
                round_trip(&tx, &both),
                ["7 err internal", "8 err internal", "9 ok pong"]
            );
            assert!(
                hit_panics.load(Ordering::Relaxed) >= 2,
                "score and the warm query"
            );
            assert_eq!(miss_panics.load(Ordering::Relaxed), 1, "the cold query");
            assert_eq!(round_trip(&tx, &next), want);
            drop(tx);
        });
    }

    #[test]
    fn a_panic_answering_at_read_time_answers_err_internal_and_the_next_line_is_answered() {
        let s = &server();
        let warm = Request::parse("optimize-op 40 56 24 2048 rw").unwrap();
        s.eval(&warm);
        let boom = |req: &Request, out: &mut String| {
            let hit = s.eval_if_cached(req, out);
            if hit && (*req == warm || matches!(req, Request::Score { .. })) {
                panic!("injected panic on the read-side hit path");
            }
            hit
        };
        let lines = [
            "1 optimize-op 40 56 24 2048 rw",
            "2 ping",
            "3 score 8 8 8 mkl 1 1 1 rw",
            "4 optimize-op 40 56 24 2048 paper",
            "5 nonsense",
        ];
        let got: Vec<Option<String>> = lines.iter().map(|l| s.answer_now_with(l, boom)).collect();
        let want = [
            Some("1 err internal"),
            Some("2 ok pong"),
            Some("3 err internal"),
            None,
            Some("5 err bad-verb"),
        ];
        assert_eq!(got.iter().map(Option::as_deref).collect::<Vec<_>>(), want);
        // The miss is counted by nothing until a batch answers it.
        let stats = s.stats();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 4);
        assert_eq!(stats.computed.load(Ordering::Relaxed), 3);
        assert_eq!(stats.inline.load(Ordering::Relaxed), 3);
        assert_eq!(stats.parse_errors.load(Ordering::Relaxed), 1);
        assert_eq!(stats.batches.load(Ordering::Relaxed), 0);
        // Without the injected panic the same server answers as serially.
        let reference = server();
        for line in [lines[0], lines[2]] {
            assert_eq!(s.answer_now(line), Some(reference.answer_line(line)));
        }
    }

    /// Bytes of bodies plus payloads in a server's reply memo.
    fn memo_bytes(s: &Server) -> usize {
        let entries = s.replies.snapshot();
        entries
            .iter()
            .map(|(body, payload)| body.len() + payload.len())
            .sum()
    }

    #[test]
    fn the_reply_memo_stays_under_its_budget_and_skips_panicked_answers() {
        let s = server();
        let reference = server();
        // Distinct `score` bodies of about 1/8 of the budget each, padded
        // with spaces, each answered twice: a fill, then a hit.
        let pad = REPLY_MEMO_BYTES / 8;
        for i in 0..40 {
            let line = format!(
                "{i} score {} 8 8 mkl 1 1 1{}rw",
                8 + i % 5,
                " ".repeat(pad + i)
            );
            for _ in 0..2 {
                assert_eq!(s.answer_now(&line), Some(reference.answer_line(&line)));
                assert!(memo_bytes(&s) <= REPLY_MEMO_BYTES);
            }
        }
        let memo = s.replies();
        assert_eq!((memo.stats.hits, memo.stats.misses), (40, 40));
        assert!(memo.evictions > 0, "{memo:?}");
        assert!(memo.entries <= 8, "{memo:?}");
        assert_eq!(*s.reply_bytes.lock().unwrap(), memo_bytes(&s));

        // A line whose answer panicked is answered `err internal` and not
        // memoized: the next line with its body is answered in full.
        let body = "score 9 9 9 mkl 1 1 1 rw";
        let boom = |_: &Request, _: &mut String| -> bool { panic!("injected panic") };
        assert_eq!(
            s.answer_now_with(&format!("p {body}"), boom).as_deref(),
            Some("p err internal")
        );
        assert_eq!(s.replies().stats, memo.stats);
        assert_eq!(s.replies().entries, memo.entries);
        for id in ["q", "r"] {
            let line = format!("{id} {body}");
            assert_eq!(s.answer_now(&line), Some(reference.answer_line(&line)));
        }
        assert_eq!(s.replies().stats.misses, memo.stats.misses + 1);
        assert_eq!(s.replies().stats.hits, memo.stats.hits + 1);
    }

    #[test]
    fn optimize_op_matches_direct_principle() {
        let s = server();
        let mm = MatMul::new(1024, 768, 768);
        let model = CostModel::paper();
        let df = fusecu_dataflow::principles::try_optimize_with(&model, mm, 512 * 1024).unwrap();
        let resp = s.answer_line("7 optimize-op 1024 768 768 524288 paper");
        assert_eq!(
            resp,
            format!(
                "7 ok ma {} order {} tiles {} {} {}",
                df.total_ma(),
                df.nest()
                    .order
                    .iter()
                    .map(|&d| dim_char(d))
                    .collect::<String>(),
                df.tiling().tile(MmDim::M),
                df.tiling().tile(MmDim::K),
                df.tiling().tile(MmDim::L)
            )
        );
    }
}
