//! Flow-aware analysis: lock facts, call graph, and the protocol rules.
//!
//! This module implements the four rules that need more than token
//! matching, split into two phases so results can be cached per file:
//!
//! 1. **Fact extraction** ([`file_facts`]) — purely intraprocedural. For
//!    every function (via the [`crate::parse`] item tree) it records which
//!    `LockRank`s are acquired directly, which calls are made while
//!    which guards are live, and emits the findings that need no other
//!    file: direct rank inversions, guards held across `PageStore` I/O in
//!    query-path modules (`guard-across-call`), the `durability-protocol`
//!    statement-order checks in `core/src/tree.rs`/`bulk.rs`, and
//!    `ignored-io-result`.
//! 2. **Global propagation** ([`global_findings`]) — builds the
//!    intra-workspace call graph from the per-file facts, computes for
//!    every function the minimum lock rank it can transitively acquire,
//!    and flags every call site where that minimum is ≤ a rank already
//!    held, naming the full call chain (`static-lock-order` for strictly
//!    lower ranks, `guard-across-call` for equal-rank re-acquisition).
//!
//! Rank inference: a lock's rank comes from its
//! `TrackedMutex::new(_, LockRank::<R>, …)` construction, bound to the
//! nearest preceding `let`/field binder *in the same file* (ranks are a
//! per-pool convention; `shards` means rank 1 in `shared.rs` but rank 2
//! in `side_cache.rs`). `.lock()` receivers resolve through that map,
//! through `container[index]` bases, and through single-lock helper
//! functions like `shard_of(id).lock()`.
//!
//! Precision choices (documented limits, all conservative-by-silence):
//! calls through std-looking method names (`push`, `get`, `insert`, …)
//! never form call-graph edges, calls on a live guard target the locked
//! *data* rather than the pool and are excluded, and
//! `gauss_storage::sync` itself (lock internals, condvar re-acquisition)
//! is outside the model. The runtime tracker remains the backstop for
//! those blind spots.
//!
//! `LockRank` is the workspace lock hierarchy (rank 0 = Store, 1 = Shard,
//! 2 = SideCache, 3 = WorkQueue, 4 = ResultSlot, 5 = EpochRegistry; see
//! `gauss_storage::sync`).

use std::collections::{BTreeSet, HashMap};

use crate::lexer::{blank, test_regions, Blanked};
use crate::parse::{is_keyword, parse_items, tokenize, FnItem, Tok};
use crate::rules::{
    self, Finding, DURABILITY_PROTOCOL, GUARD_ACROSS_CALL, IGNORED_IO_RESULT, STATIC_LOCK_ORDER,
};
use crate::walk::{FileKind, SourceFile};

/// Rank names from `gauss_storage::sync::LockRank`, index = rank value.
const RANK_NAMES: &[&str] = &[
    "Store",
    "Shard",
    "SideCache",
    "WorkQueue",
    "ResultSlot",
    "EpochRegistry",
];

/// Sentinel "acquires nothing" rank (all real ranks are smaller).
const NO_RANK: u8 = u8::MAX;

/// Method/function names that never form call-graph edges: overwhelmingly
/// std container/iterator/atomic calls, and tracking them as potential
/// calls into same-named workspace functions would drown the analysis in
/// false chains.
const STD_NAMES: &[&str] = &[
    "push",
    "pop",
    "get",
    "get_mut",
    "get_or_insert",
    "get_or_insert_with",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "len",
    "is_empty",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "peek",
    "map",
    "and_then",
    "filter",
    "fold",
    "for_each",
    "collect",
    "extend",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "min",
    "max",
    "min_by",
    "max_by",
    "sum",
    "product",
    "take",
    "rev",
    "zip",
    "enumerate",
    "chain",
    "flat_map",
    "flatten",
    "last",
    "first",
    "count",
    "position",
    "find",
    "any",
    "all",
    "cloned",
    "copied",
    "clone",
    "to_vec",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "as_mut_slice",
    "into",
    "from",
    "try_from",
    "try_into",
    "parse",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "abs",
    "sqrt",
    "ln",
    "exp",
    "powi",
    "powf",
    "floor",
    "ceil",
    "round",
    "to_bits",
    "from_bits",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "default",
    "drop",
    "split_at",
    "split_off",
    "starts_with",
    "ends_with",
    "trim",
    "join",
    "push_str",
    "entry",
    "or_insert",
    "or_insert_with",
    "keys",
    "values",
    "windows",
    "chunks",
    "binary_search",
    "binary_search_by",
    "partition_point",
    "resize",
    "truncate",
    "reserve",
    "with_capacity",
    "swap_remove",
    "split_first",
    "split_last",
    "copy_from_slice",
    "fill",
    "min_by_key",
    "max_by_key",
    "skip",
    "step_by",
    "leading_zeros",
    "trailing_zeros",
    "then",
    "then_some",
    "unzip",
    "to_le_bytes",
    "from_le_bytes",
    "to_be_bytes",
    "from_be_bytes",
    "write_fmt",
    "finish",
    "field",
    "debug_struct",
];

/// `gauss_storage` I/O API names whose `Result`s must not be dropped and
/// which count as "PageStore I/O" for the guard-across-I/O check.
const IO_NAMES: &[&str] = &[
    "read_page",
    "write_page",
    "write_pages",
    "write_batch",
    "write",
    "read",
    "sync",
    "flush",
    "allocate",
    "allocate_many",
    "page",
    "set_len",
    "write_all",
    "read_exact",
];

/// Tokens that, present in a `let _ = …;` statement, show the `Result`
/// was actually consumed before the discard.
const HANDLED_MARKS: &[&str] = &[
    "unwrap",
    "expect",
    "is_ok",
    "is_err",
    "ok",
    "map_err",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
];

/// The lock-tracking internals themselves: raw primitives and condvar
/// re-acquisition live here by design, so the static model excludes it.
const SYNC_MODULE: &str = "crates/storage/src/sync.rs";

/// One direct lock acquisition (or a held guard at a call site).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acq {
    /// Lock rank (0 = Store … 5 = EpochRegistry).
    pub rank: u8,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Binder name of the lock (`store`, `shards`, …).
    pub lock: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (method or free function).
    pub name: String,
    /// Path qualifier before `::` (`Self`, a type, or empty).
    pub qual: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Whether the receiver is a live lock guard (call targets the locked
    /// data, not the pool — excluded from the call graph).
    pub on_guard: bool,
    /// Guards live across this call.
    pub held: Vec<Acq>,
}

/// Per-function facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFacts {
    /// Bare name.
    pub name: String,
    /// `impl`/`trait` self type, or empty.
    pub impl_type: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Direct acquisitions.
    pub acquires: Vec<Acq>,
    /// Call sites (std-named and macro calls excluded).
    pub calls: Vec<CallSite>,
}

impl FnFacts {
    /// Diagnostic path: `Type::name` or `name`.
    #[must_use]
    pub fn display(&self) -> String {
        if self.impl_type.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.impl_type, self.name)
        }
    }
}

/// One allow annotation, carried in the facts so the global pass can
/// honour escape hatches without re-reading the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowFact {
    /// Silenced rule names.
    pub rules: Vec<String>,
    /// 1-based line of the comment.
    pub line: usize,
    /// Standalone comments also cover the next line.
    pub standalone: bool,
}

/// Everything the linter knows about one file, cacheable between runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Owning crate directory name.
    pub crate_name: String,
    /// Function facts (lock-rule scope only; empty for tests/shims).
    pub fns: Vec<FnFacts>,
    /// Allow annotations (all of them, for the global pass).
    pub allows: Vec<AllowFact>,
    /// Findings decided from this file alone, already allow-filtered.
    pub local: Vec<Finding>,
}

impl FileFacts {
    /// Whether `rule` is escape-hatched on `line`.
    #[must_use]
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|a| {
            a.rules.iter().any(|r| r == rule)
                && (a.line == line || (a.standalone && a.line + 1 == line))
        })
    }
}

/// Whether lock/call-graph facts are collected for this file. Test code
/// deliberately constructs inversions to exercise the runtime tracker, so
/// only library, binary, and example code is modelled.
fn lock_scope(file: &SourceFile) -> bool {
    matches!(file.kind, FileKind::Lib | FileKind::Bin | FileKind::Example)
        && file.rel_path != SYNC_MODULE
}

/// Query-path modules where a guard across `PageStore` I/O is flagged.
fn query_path_module(file: &SourceFile) -> bool {
    file.crate_name == "core"
        && matches!(
            file.rel_path.rsplit('/').next(),
            Some("query.rs" | "cursor.rs" | "executor.rs" | "view.rs" | "interval.rs")
        )
}

/// Modules under the durability-protocol statement-order checks: the
/// single-tree commit path and the forest's manifest-commit path.
fn durability_module(file: &SourceFile) -> bool {
    file.crate_name == "core"
        && (matches!(
            file.rel_path.rsplit('/').next(),
            Some("tree.rs" | "bulk.rs")
        ) || file.rel_path.ends_with("forest/mod.rs"))
}

/// Extracts [`FileFacts`] for one file: token-level rule findings (via
/// [`rules::lint_blanked`]) plus the flow-aware local findings and the
/// call-graph facts for [`global_findings`].
#[must_use]
pub fn file_facts(file: &SourceFile, src: &str) -> FileFacts {
    let blanked = blank(src);
    let test_spans = test_regions(&blanked.code);
    let mut facts = FileFacts {
        rel_path: file.rel_path.clone(),
        crate_name: file.crate_name.clone(),
        fns: Vec::new(),
        allows: blanked
            .allows
            .iter()
            .map(|a| AllowFact {
                rules: a.rules.clone(),
                line: a.line,
                standalone: a.standalone,
            })
            .collect(),
        local: rules::lint_blanked(file, &blanked, &test_spans),
    };
    if file.kind == FileKind::Shim {
        return facts;
    }
    let toks = tokenize(&blanked.code);
    let tree = parse_items(&blanked.code);
    ignored_io_rule(file, &blanked, &toks, &mut facts);
    if !lock_scope(file) {
        return facts;
    }
    let locks = lock_bindings(&toks);
    let hints = helper_hints(&tree, &toks, &locks);
    let in_test = |pos: usize| test_spans.iter().any(|&(s, e)| s <= pos && pos < e);
    for item in &tree.fns {
        let Some(body) = item.body else { continue };
        if in_test(item.pos) {
            continue;
        }
        let fnf = analyze_body(
            file, &blanked, &toks, item, body, &locks, &hints, &mut facts,
        );
        facts.fns.push(fnf);
    }
    facts
}

/// Builds the per-file lock-binder map: binder name → rank, from every
/// `TrackedMutex::new(_, LockRank::<R>, …)` construction site.
fn lock_bindings(toks: &[(usize, Tok<'_>)]) -> HashMap<String, u8> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i + 4 < toks.len() {
        if toks[i].1 == Tok::Ident("TrackedMutex")
            && toks[i + 1].1 == Tok::Punct(b':')
            && toks[i + 2].1 == Tok::Punct(b':')
            && toks[i + 3].1 == Tok::Ident("new")
            && toks[i + 4].1 == Tok::Punct(b'(')
        {
            if let (Some(rank), Some(binder)) = (rank_in_args(toks, i + 4), binder_before(toks, i))
            {
                out.insert(binder, rank);
            }
            i += 5;
        } else {
            i += 1;
        }
    }
    out
}

/// Finds `LockRank::<R>` among the argument tokens of the call whose `(`
/// sits at token index `open`.
fn rank_in_args(toks: &[(usize, Tok<'_>)], open: usize) -> Option<u8> {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].1 {
            Tok::Punct(b'(') => depth += 1,
            Tok::Punct(b')') => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            Tok::Ident("LockRank") => {
                if let (Some(&(_, Tok::Punct(b':'))), Some(&(_, Tok::Punct(b':')))) =
                    (toks.get(j + 1), toks.get(j + 2))
                {
                    if let Some(&(_, Tok::Ident(name))) = toks.get(j + 3) {
                        return RANK_NAMES
                            .iter()
                            .position(|&r| r == name)
                            .and_then(|p| u8::try_from(p).ok());
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Scans backwards from the `TrackedMutex` token for the binder the
/// construction is assigned to: the nearest preceding `ident :` (field or
/// typed let) or `ident =` (plain let / assignment), stopping at the
/// statement boundary.
fn binder_before(toks: &[(usize, Tok<'_>)], from: usize) -> Option<String> {
    let mut k = from;
    let mut steps = 0;
    while k > 0 && steps < 60 {
        k -= 1;
        steps += 1;
        match toks[k].1 {
            Tok::Punct(b';') => return None,
            Tok::Ident(name) if !is_keyword(name) => {
                let next = toks.get(k + 1).map(|&(_, t)| t);
                let after = toks.get(k + 2).map(|&(_, t)| t);
                let single_colon =
                    next == Some(Tok::Punct(b':')) && after != Some(Tok::Punct(b':'));
                let plain_assign = next == Some(Tok::Punct(b'='))
                    && !matches!(after, Some(Tok::Punct(b'=' | b'>')));
                if (single_colon || plain_assign) && k + 1 < from {
                    return Some(name.to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// For `helper(args).lock()` receivers: maps helper-function names to a
/// rank when the helper's body references exactly one known lock binder.
fn helper_hints(
    tree: &crate::parse::ItemTree,
    toks: &[(usize, Tok<'_>)],
    locks: &HashMap<String, u8>,
) -> HashMap<String, u8> {
    let mut out = HashMap::new();
    if locks.is_empty() {
        return out;
    }
    for f in &tree.fns {
        let Some((b, e)) = f.body else { continue };
        let lo = toks.partition_point(|&(p, _)| p < b);
        let hi = toks.partition_point(|&(p, _)| p < e);
        let mut seen: BTreeSet<u8> = BTreeSet::new();
        for &(_, t) in &toks[lo..hi] {
            if let Tok::Ident(name) = t {
                if let Some(&r) = locks.get(name) {
                    seen.insert(r);
                }
            }
        }
        if seen.len() == 1 {
            if let Some(&r) = seen.iter().next() {
                out.insert(f.name.clone(), r);
            }
        }
    }
    out
}

/// A guard live inside a body walk.
#[derive(Debug, Clone)]
struct Guard {
    /// Binding name (empty for statement temporaries).
    name: String,
    rank: u8,
    lock: String,
    line: usize,
    /// Byte offset of the acquisition (calls before it are not "under").
    off: usize,
}

/// One lexical scope during the body walk.
#[derive(Debug, Default)]
struct Frame {
    /// `let`-bound guards: live to the end of the scope or `drop(x)`.
    guards: Vec<Guard>,
    /// Statement temporaries: live to the next `;`.
    temps: Vec<Guard>,
    /// Token index where the current statement began.
    stmt_start: usize,
}

/// Walks one function body, collecting acquisitions, call sites, and the
/// intraprocedural findings.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn analyze_body(
    file: &SourceFile,
    blanked: &Blanked,
    toks: &[(usize, Tok<'_>)],
    item: &FnItem,
    body: (usize, usize),
    locks: &HashMap<String, u8>,
    hints: &HashMap<String, u8>,
    facts: &mut FileFacts,
) -> FnFacts {
    let mut fnf = FnFacts {
        name: item.name.clone(),
        impl_type: item.impl_type.clone(),
        line: blanked.line_of(item.pos),
        acquires: Vec::new(),
        calls: Vec::new(),
    };
    let lo = toks.partition_point(|&(p, _)| p < body.0);
    let hi = toks.partition_point(|&(p, _)| p < body.1);
    let durability = durability_module(file);
    let query_path = query_path_module(file);
    let mut frames: Vec<Frame> = Vec::new();
    let mut sync_seen = false;
    let mut epoch_assigned = false;
    let mut min_pinned_seen = false;
    let mut report = |rule: &'static str, line: usize, message: String, chain: Vec<String>| {
        if !blanked.is_allowed(rule, line) {
            facts.local.push(Finding {
                rel_path: file.rel_path.clone(),
                line,
                rule,
                message,
                chain,
            });
        }
    };
    let mut j = lo;
    while j < hi {
        let (pos, tok) = toks[j];
        match tok {
            Tok::Punct(b'{') => {
                frames.push(Frame {
                    stmt_start: j + 1,
                    ..Frame::default()
                });
            }
            Tok::Punct(b'}') => {
                frames.pop();
            }
            Tok::Punct(b';') => {
                if let Some(f) = frames.last_mut() {
                    f.temps.clear();
                    f.stmt_start = j + 1;
                }
            }
            Tok::Ident("epoch")
                if toks.get(j + 1).map(|&(_, t)| t) == Some(Tok::Punct(b'='))
                    && !matches!(
                        toks.get(j + 2).map(|&(_, t)| t),
                        Some(Tok::Punct(b'=' | b'>'))
                    ) =>
            {
                epoch_assigned = true;
            }
            Tok::Ident("drop") if toks.get(j + 1).map(|&(_, t)| t) == Some(Tok::Punct(b'(')) => {
                if let (Some(&(_, Tok::Ident(nm))), Some(&(_, Tok::Punct(b')')))) =
                    (toks.get(j + 2), toks.get(j + 3))
                {
                    for f in &mut frames {
                        f.guards.retain(|g| g.name != nm);
                    }
                }
            }
            Tok::Ident("lock")
                if j > lo
                    && toks[j - 1].1 == Tok::Punct(b'.')
                    && toks.get(j + 1).map(|&(_, t)| t) == Some(Tok::Punct(b'(')) =>
            {
                let rank = receiver_rank(toks, j - 1, locks, hints);
                if let Some((rank, lock)) = rank {
                    let line = blanked.line_of(pos);
                    // Direct inversion: acquiring strictly below a held
                    // rank can deadlock regardless of interleaving.
                    for g in live_guards(&frames, pos) {
                        if g.rank > rank {
                            report(
                                STATIC_LOCK_ORDER,
                                line,
                                format!(
                                    "acquires `{lock}` ({}) while holding `{}` ({}, line {}): \
                                     lock ranks must strictly increase",
                                    rank_label(rank),
                                    g.lock,
                                    rank_label(g.rank),
                                    g.line
                                ),
                                vec![fnf.display()],
                            );
                        }
                    }
                    fnf.acquires.push(Acq {
                        rank,
                        line,
                        lock: lock.clone(),
                    });
                    let guard = Guard {
                        name: let_binder(toks, &frames, j).unwrap_or_default(),
                        rank,
                        lock,
                        line,
                        off: pos,
                    };
                    if let Some(f) = frames.last_mut() {
                        if guard.name.is_empty() {
                            f.temps.push(guard);
                        } else {
                            f.guards.push(guard);
                        }
                    }
                }
            }
            Tok::Ident(name)
                if !is_keyword(name)
                    && name != "lock"
                    && toks.get(j + 1).map(|&(_, t)| t) == Some(Tok::Punct(b'(')) =>
            {
                let method = j > lo && toks[j - 1].1 == Tok::Punct(b'.');
                let qual = path_qualifier(toks, j);
                let on_guard = method && receiver_is_guard(toks, j - 1, &frames, pos);
                let held: Vec<Acq> = live_guards(&frames, pos)
                    .map(|g| Acq {
                        rank: g.rank,
                        line: g.line,
                        lock: g.lock.clone(),
                    })
                    .collect();
                let line = blanked.line_of(pos);
                if durability {
                    if name == "sync" {
                        sync_seen = true;
                    }
                    if name == "min_pinned" {
                        min_pinned_seen = true;
                    }
                    durability_checks(
                        toks,
                        j,
                        name,
                        method,
                        sync_seen,
                        epoch_assigned,
                        min_pinned_seen,
                        line,
                        &mut report,
                    );
                }
                if query_path && method && IO_NAMES.contains(&name) {
                    for h in &held {
                        report(
                            GUARD_ACROSS_CALL,
                            line,
                            format!(
                                "guard `{}` ({}, line {}) held across PageStore I/O \
                                 `.{name}(…)`: release the lock before touching storage \
                                 on the query path",
                                h.lock,
                                rank_label(h.rank),
                                h.line
                            ),
                            vec![fnf.display()],
                        );
                    }
                }
                if !STD_NAMES.contains(&name) {
                    fnf.calls.push(CallSite {
                        name: name.to_string(),
                        qual,
                        line,
                        on_guard,
                        held,
                    });
                }
            }
            _ => {}
        }
        j += 1;
    }
    fnf
}

/// Human label `rank N/Name`.
fn rank_label(rank: u8) -> String {
    let name = RANK_NAMES.get(rank as usize).copied().unwrap_or("?");
    format!("rank {rank}/{name}")
}

/// All guards live at byte offset `pos`.
fn live_guards<'a>(frames: &'a [Frame], pos: usize) -> impl Iterator<Item = &'a Guard> + 'a {
    frames
        .iter()
        .flat_map(|f| f.guards.iter().chain(f.temps.iter()))
        .filter(move |g| g.off < pos)
}

/// Resolves the rank of a `.lock()` receiver: the token chain before the
/// `.` at token index `dot`.
fn receiver_rank(
    toks: &[(usize, Tok<'_>)],
    dot: usize,
    locks: &HashMap<String, u8>,
    hints: &HashMap<String, u8>,
) -> Option<(u8, String)> {
    if dot == 0 {
        return None;
    }
    match toks[dot - 1].1 {
        Tok::Ident(name) => locks.get(name).map(|&r| (r, name.to_string())),
        Tok::Punct(b')') => {
            // `helper(args).lock()`: resolve through the helper's hint.
            let open = matching_back(toks, dot - 1, b'(', b')')?;
            if open == 0 {
                return None;
            }
            match toks[open - 1].1 {
                Tok::Ident(name) => hints.get(name).map(|&r| (r, format!("{name}(…)"))),
                _ => None,
            }
        }
        Tok::Punct(b']') => {
            // `container[idx].lock()`: the container is the binder.
            let open = matching_back(toks, dot - 1, b'[', b']')?;
            if open == 0 {
                return None;
            }
            match toks[open - 1].1 {
                Tok::Ident(name) => locks.get(name).map(|&r| (r, name.to_string())),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Token index of the `open` delimiter matching the `close` at `at`.
fn matching_back(toks: &[(usize, Tok<'_>)], at: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = at + 1;
    while k > 0 {
        k -= 1;
        match toks[k].1 {
            Tok::Punct(b) if b == close => depth += 1,
            Tok::Punct(b) if b == open => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the method receiver before the `.` at `dot` is a live guard
/// (`guard.m(…)`) or a fresh `.lock()` temporary (`x.lock().m(…)`).
fn receiver_is_guard(toks: &[(usize, Tok<'_>)], dot: usize, frames: &[Frame], pos: usize) -> bool {
    if dot == 0 {
        return false;
    }
    match toks[dot - 1].1 {
        Tok::Ident(name) => live_guards(frames, pos).any(|g| g.name == name),
        Tok::Punct(b')') => matching_back(toks, dot - 1, b'(', b')')
            .and_then(|open| open.checked_sub(1))
            .map(|k| toks[k].1 == Tok::Ident("lock"))
            .unwrap_or(false),
        _ => false,
    }
}

/// The `Type`/`Self` qualifier of a `Qual::name(` call, if any.
fn path_qualifier(toks: &[(usize, Tok<'_>)], j: usize) -> String {
    if j >= 3 && toks[j - 1].1 == Tok::Punct(b':') && toks[j - 2].1 == Tok::Punct(b':') {
        if let Tok::Ident(q) = toks[j - 3].1 {
            return q.to_string();
        }
    }
    String::new()
}

/// If the current statement is `let [mut] <ident> =`/`let <ident>:`, the
/// binder name — the guard then lives to the end of the scope.
fn let_binder(toks: &[(usize, Tok<'_>)], frames: &[Frame], _at: usize) -> Option<String> {
    let start = frames.last()?.stmt_start;
    if toks.get(start)?.1 != Tok::Ident("let") {
        return None;
    }
    let mut k = start + 1;
    if toks.get(k)?.1 == Tok::Ident("mut") {
        k += 1;
    }
    match toks.get(k)?.1 {
        Tok::Ident(nm) if !is_keyword(nm) => match toks.get(k + 1)?.1 {
            Tok::Punct(b'=' | b':') => Some(nm.to_string()),
            _ => None,
        },
        _ => None,
    }
}

/// The statement-order durability checks at one call token.
#[allow(clippy::too_many_arguments)]
fn durability_checks(
    toks: &[(usize, Tok<'_>)],
    j: usize,
    name: &str,
    method: bool,
    sync_seen: bool,
    epoch_assigned: bool,
    min_pinned_seen: bool,
    line: usize,
    report: &mut impl FnMut(&'static str, usize, String, Vec<String>),
) {
    if method && matches!(name, "write" | "write_page") && is_meta_slot_arg(toks, j + 1) {
        if !sync_seen {
            report(
                DURABILITY_PROTOCOL,
                line,
                "meta-slot write is not dominated by a data `sync` barrier in this \
                 function: carriers must be durable before the commit record"
                    .to_string(),
                Vec::new(),
            );
        }
        return;
    }
    // Forest commit record: the manifest slot names component pages, so
    // every component must be synced before the slot write — the
    // multi-file analogue of the meta-slot rule above.
    if method && name == "write_manifest_slot" && !sync_seen {
        report(
            DURABILITY_PROTOCOL,
            line,
            "manifest-slot write is not dominated by a component `sync` barrier in \
             this function: component pages must be durable before the manifest \
             commits to them"
                .to_string(),
            Vec::new(),
        );
        return;
    }
    if method
        && matches!(name, "pop" | "drain" | "remove" | "swap_remove")
        && j >= 2
        && toks[j - 1].1 == Tok::Punct(b'.')
        && toks[j - 2].1 == Tok::Ident("free_pending")
    {
        report(
            DURABILITY_PROTOCOL,
            line,
            format!(
                "`free_pending.{name}(…)` reallocates a shadow-freed page before the \
                 epoch commit: pages freed this epoch are still referenced by the \
                 last durable tree"
            ),
            Vec::new(),
        );
    }
    if matches!(name, "append" | "take")
        && args_mention(toks, j + 1, "free_pending")
        && !epoch_assigned
    {
        report(
            DURABILITY_PROTOCOL,
            line,
            format!(
                "`free_pending` drained (`{name}`) before the epoch commit \
                 (`self.epoch = …`): a crash here would reuse pages the durable tree \
                 still references"
            ),
            Vec::new(),
        );
    }
    if method
        && matches!(name, "pop_front" | "pop" | "drain" | "remove" | "clear")
        && j >= 2
        && toks[j - 1].1 == Tok::Punct(b'.')
        && toks[j - 2].1 == Tok::Ident("free_aging")
        && !min_pinned_seen
    {
        report(
            DURABILITY_PROTOCOL,
            line,
            format!(
                "`free_aging.{name}(…)` reclaims epoch-tagged pages without first \
                 consulting `EpochRegistry::min_pinned`: a live snapshot may still \
                 read them"
            ),
            Vec::new(),
        );
    }
}

/// Whether the first argument of the call whose `(` is at token `open`
/// names the meta slot (`slot`, `META_SLOT_A/B`, or `PageId(0)`).
fn is_meta_slot_arg(toks: &[(usize, Tok<'_>)], open: usize) -> bool {
    match toks.get(open + 1).map(|&(_, t)| t) {
        Some(Tok::Ident("slot" | "META_SLOT_A" | "META_SLOT_B")) => true,
        Some(Tok::Ident("PageId")) => {
            toks.get(open + 2).map(|&(_, t)| t) == Some(Tok::Punct(b'('))
                && toks.get(open + 3).map(|&(_, t)| t) == Some(Tok::Ident("0"))
        }
        _ => false,
    }
}

/// Whether the argument list opening at token `open` mentions `needle`.
fn args_mention(toks: &[(usize, Tok<'_>)], open: usize, needle: &str) -> bool {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        match toks[k].1 {
            Tok::Punct(b'(') => depth += 1,
            Tok::Punct(b')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(n) if n == needle => return true,
            _ => {}
        }
        k += 1;
    }
    false
}

/// The `ignored-io-result` rule: `let _ = <io call>;` or
/// `drop(<io call>)` statements that discard a `gauss_storage` I/O
/// `Result` without consuming it.
fn ignored_io_rule(
    file: &SourceFile,
    blanked: &Blanked,
    toks: &[(usize, Tok<'_>)],
    facts: &mut FileFacts,
) {
    let mut j = 0;
    while j + 2 < toks.len() {
        let discard_end = match (toks[j].1, toks[j + 1].1, toks[j + 2].1) {
            (Tok::Ident("let"), Tok::Ident("_"), Tok::Punct(b'=')) => Some(j + 3),
            (Tok::Ident("drop"), Tok::Punct(b'('), _)
                if j == 0 || toks[j - 1].1 != Tok::Punct(b'.') =>
            {
                Some(j + 2)
            }
            _ => None,
        };
        let Some(start) = discard_end else {
            j += 1;
            continue;
        };
        // Scan the discarded expression to the statement end.
        let mut depth = 0i32;
        let mut k = start;
        let mut io_call: Option<&str> = None;
        let mut handled = false;
        while k < toks.len() {
            match toks[k].1 {
                Tok::Punct(b'(' | b'[' | b'{') => depth += 1,
                Tok::Punct(b')' | b']' | b'}') => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                Tok::Punct(b';') if depth <= 0 => break,
                Tok::Punct(b'?') => handled = true,
                Tok::Ident(name) => {
                    if HANDLED_MARKS.contains(&name) {
                        handled = true;
                    }
                    if io_call.is_none()
                        && IO_NAMES.contains(&name)
                        && k > 0
                        && toks[k - 1].1 == Tok::Punct(b'.')
                        && toks.get(k + 1).map(|&(_, t)| t) == Some(Tok::Punct(b'('))
                    {
                        io_call = Some(name);
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if let (Some(io), false) = (io_call, handled) {
            let pos = toks[j].0;
            let line = blanked.line_of(pos);
            if !blanked.is_allowed(IGNORED_IO_RESULT, line) {
                facts.local.push(Finding {
                    rel_path: file.rel_path.clone(),
                    line,
                    rule: IGNORED_IO_RESULT,
                    message: format!(
                        "Result of I/O call `.{io}(…)` is discarded: a failed write or \
                         sync would go unnoticed — handle the error or `?` it up"
                    ),
                    chain: Vec::new(),
                });
            }
        }
        j = k.max(j + 1);
    }
}

/// An index into the flattened workspace function table.
type FnRef = usize;

/// A chain sink's acquisition: `(lock name, file, line, rank)`.
type SinkAcq = (String, String, usize, u8);

/// Builds the workspace call graph from per-file facts and reports every
/// call site where the callee can transitively acquire a rank ≤ one
/// already held, with the full call chain.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn global_findings(files: &[FileFacts]) -> Vec<Finding> {
    // Flattened function table.
    let mut table: Vec<(usize, usize)> = Vec::new(); // (file idx, fn idx)
    let mut by_name: HashMap<&str, Vec<FnRef>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            by_name
                .entry(f.name.as_str())
                .or_default()
                .push(table.len());
            table.push((fi, gi));
        }
    }
    let fn_of = |r: FnRef| -> &FnFacts {
        let (fi, gi) = table[r];
        &files[fi].fns[gi]
    };
    let resolve = |caller: FnRef, call: &CallSite| -> Vec<FnRef> {
        let Some(cands) = by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        if !call.qual.is_empty() {
            let want = if call.qual == "Self" {
                fn_of(caller).impl_type.clone()
            } else {
                call.qual.clone()
            };
            return cands
                .iter()
                .copied()
                .filter(|&r| fn_of(r).impl_type == want)
                .collect();
        }
        if cands.len() > 6 {
            // Too ambiguous to say anything useful.
            return Vec::new();
        }
        cands.clone()
    };

    // Edges (skipping calls on guards: those target the locked data).
    let mut edges: Vec<Vec<FnRef>> = vec![Vec::new(); table.len()];
    for (r, &(fi, gi)) in table.iter().enumerate() {
        for call in &files[fi].fns[gi].calls {
            if call.on_guard {
                continue;
            }
            edges[r].extend(resolve(r, call));
        }
        edges[r].sort_unstable();
        edges[r].dedup();
    }

    // Minimum transitively-acquired rank per function, with a witness to
    // reconstruct the chain: either a direct acquisition or the callee
    // through which the minimum flows.
    #[derive(Clone, Copy)]
    enum Wit {
        None,
        Direct(usize),
        Via(FnRef),
    }
    let mut min_rank: Vec<u8> = table
        .iter()
        .map(|&(fi, gi)| {
            files[fi].fns[gi]
                .acquires
                .iter()
                .map(|a| a.rank)
                .min()
                .unwrap_or(NO_RANK)
        })
        .collect();
    let mut witness: Vec<Wit> = table
        .iter()
        .map(|&(fi, gi)| {
            files[fi].fns[gi]
                .acquires
                .iter()
                .enumerate()
                .min_by_key(|(_, a)| a.rank)
                .map_or(Wit::None, |(idx, _)| Wit::Direct(idx))
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for r in 0..table.len() {
            for &c in &edges[r] {
                if min_rank[c] < min_rank[r] {
                    min_rank[r] = min_rank[c];
                    witness[r] = Wit::Via(c);
                    changed = true;
                }
            }
        }
    }

    // Renders `start -> … -> sink`, returning the chain and the sink's
    // acquisition for the message.
    let chain_of = |start: FnRef| -> (Vec<String>, Option<SinkAcq>) {
        let mut names = Vec::new();
        let mut cur = start;
        for _ in 0..12 {
            names.push(fn_of(cur).display());
            match witness[cur] {
                Wit::Direct(idx) => {
                    let (fi, _) = table[cur];
                    let acq = &fn_of(cur).acquires[idx];
                    return (
                        names,
                        Some((
                            acq.lock.clone(),
                            files[fi].rel_path.clone(),
                            acq.line,
                            acq.rank,
                        )),
                    );
                }
                Wit::Via(c) => cur = c,
                Wit::None => break,
            }
        }
        (names, None)
    };

    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (r, &(fi, gi)) in table.iter().enumerate() {
        let caller = &files[fi].fns[gi];
        for call in &caller.calls {
            if call.on_guard || call.held.is_empty() {
                continue;
            }
            let best = resolve(r, call)
                .into_iter()
                .filter(|&c| min_rank[c] != NO_RANK)
                .min_by_key(|&c| min_rank[c]);
            let Some(best) = best else { continue };
            let callee_min = min_rank[best];
            let (chain_tail, acq) = chain_of(best);
            let Some((lock, acq_file, acq_line, acq_rank)) = acq else {
                continue;
            };
            let mut chain = vec![caller.display()];
            chain.extend(chain_tail);
            let rendered = chain.join(" -> ");
            let sink = chain.last().cloned().unwrap_or_default();
            for h in &call.held {
                let (rule, message) = if callee_min < h.rank {
                    (
                        STATIC_LOCK_ORDER,
                        format!(
                            "holding `{}` ({}, line {}), this call can reach \
                             `{sink}` which acquires `{lock}` ({}) at {acq_file}:{acq_line} — \
                             rank order violated on path {rendered}",
                            h.lock,
                            rank_label(h.rank),
                            h.line,
                            rank_label(acq_rank),
                        ),
                    )
                } else if callee_min == h.rank {
                    (
                        GUARD_ACROSS_CALL,
                        format!(
                            "guard `{}` ({}, line {}) is live across a call that can \
                             re-acquire the same rank (`{lock}` at {acq_file}:{acq_line} \
                             via {rendered}): drop the guard first",
                            h.lock,
                            rank_label(h.rank),
                            h.line,
                        ),
                    )
                } else {
                    continue;
                };
                if files[fi].is_allowed(rule, call.line) {
                    continue;
                }
                let key = (files[fi].rel_path.clone(), call.line, rule, message.clone());
                if seen.insert(key) {
                    out.push(Finding {
                        rel_path: files[fi].rel_path.clone(),
                        line: call.line,
                        rule,
                        message,
                        chain: chain.clone(),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::classify;

    fn facts_for(rel: &str, src: &str) -> FileFacts {
        let (kind, crate_name) = classify(rel);
        let file = SourceFile {
            rel_path: rel.to_string(),
            abs_path: std::path::PathBuf::from(rel),
            kind,
            crate_name,
        };
        file_facts(&file, src)
    }

    fn lint_all(specs: &[(&str, &str)]) -> Vec<Finding> {
        let mut files: Vec<FileFacts> = specs.iter().map(|(r, s)| facts_for(r, s)).collect();
        let mut out: Vec<Finding> = files
            .iter_mut()
            .flat_map(|f| f.local.split_off(0))
            .collect();
        out.extend(global_findings(&files));
        out
    }

    const POOL: &str = "\
use gauss_storage::sync::{LockRank, TrackedMutex};\n\
pub struct Pool { store: TrackedMutex<u32>, shard: TrackedMutex<u32> }\n\
impl Pool {\n\
    pub fn fresh() -> Self {\n\
        Self {\n\
            store: TrackedMutex::new(0, LockRank::Store, 0, \"t-store\"),\n\
            shard: TrackedMutex::new(0, LockRank::Shard, 0, \"t-shard\"),\n\
        }\n\
    }\n";

    #[test]
    fn direct_inversion_flagged_ascending_ok() {
        let bad = format!(
            "{POOL}    pub fn inverted(&self) {{\n        let s = self.shard.lock();\n        let t = self.store.lock();\n        let _ = (s, t);\n    }}\n}}\n"
        );
        let f = facts_for("crates/storage/src/x.rs", &bad);
        let slo: Vec<_> = f
            .local
            .iter()
            .filter(|f| f.rule == STATIC_LOCK_ORDER)
            .collect();
        assert_eq!(slo.len(), 1, "{:?}", f.local);
        assert_eq!(slo[0].line, 12);

        let good = format!(
            "{POOL}    pub fn ascending(&self) {{\n        let t = self.store.lock();\n        let s = self.shard.lock();\n        let _ = (s, t);\n    }}\n}}\n"
        );
        let f = facts_for("crates/storage/src/x.rs", &good);
        assert!(f.local.iter().all(|f| f.rule != STATIC_LOCK_ORDER));
    }

    #[test]
    fn drop_and_scope_end_release_guards() {
        let src = format!(
            "{POOL}    pub fn scoped(&self) {{\n        {{ let s = self.shard.lock(); let _ = s; }}\n        let t = self.store.lock();\n        let _ = t;\n    }}\n    pub fn dropped(&self) {{\n        let s = self.shard.lock();\n        drop(s);\n        let t = self.store.lock();\n        let _ = t;\n    }}\n}}\n"
        );
        let f = facts_for("crates/storage/src/x.rs", &src);
        assert!(
            f.local.iter().all(|f| f.rule != STATIC_LOCK_ORDER),
            "{:?}",
            f.local
        );
    }

    #[test]
    fn chained_inversion_reported_with_call_chain() {
        let src = format!(
            "{POOL}    pub fn entry(&self) {{\n        let s = self.shard.lock();\n        self.middle();\n        let _ = s;\n    }}\n    fn middle(&self) {{ self.bottom(); }}\n    fn bottom(&self) {{ let t = self.store.lock(); let _ = t; }}\n}}\n"
        );
        let all = lint_all(&[("crates/storage/src/x.rs", &src)]);
        let slo: Vec<_> = all.iter().filter(|f| f.rule == STATIC_LOCK_ORDER).collect();
        assert_eq!(slo.len(), 1, "{all:?}");
        assert_eq!(slo[0].line, 12, "finding anchors at the call site");
        assert!(
            slo[0]
                .message
                .contains("Pool::entry -> Pool::middle -> Pool::bottom"),
            "full chain rendered: {}",
            slo[0].message
        );
    }

    #[test]
    fn equal_rank_across_call_is_guard_across_call() {
        let src = format!(
            "{POOL}    pub fn twice(&self) {{\n        let s = self.store.lock();\n        self.total();\n        let _ = s;\n    }}\n    fn total(&self) {{ let t = self.store.lock(); let _ = t; }}\n}}\n"
        );
        let all = lint_all(&[("crates/storage/src/x.rs", &src)]);
        let gac: Vec<_> = all.iter().filter(|f| f.rule == GUARD_ACROSS_CALL).collect();
        assert_eq!(gac.len(), 1, "{all:?}");
        assert!(gac[0].message.contains("re-acquire the same rank"));
    }

    #[test]
    fn guard_receiver_calls_are_not_edges() {
        // `store.write_pages(...)` on a guard targets the locked data, not
        // the pool — even though a same-named pool method acquires locks.
        let src = format!(
            "{POOL}    pub fn write_pages(&self) {{\n        let store = self.store.lock();\n        store.write_pages();\n        let _ = store;\n    }}\n}}\n"
        );
        let all = lint_all(&[("crates/storage/src/x.rs", &src)]);
        assert!(
            all.iter()
                .all(|f| f.rule != GUARD_ACROSS_CALL && f.rule != STATIC_LOCK_ORDER),
            "{all:?}"
        );
    }

    #[test]
    fn lock_temporary_method_chain_not_flagged() {
        let src = format!(
            "{POOL}    pub fn num(&self) -> u32 {{ self.store.lock().value() }}\n    pub fn value(&self) -> u32 {{ *self.store.lock() }}\n}}\n"
        );
        let all = lint_all(&[("crates/storage/src/x.rs", &src)]);
        assert!(all.iter().all(|f| f.rule != GUARD_ACROSS_CALL), "{all:?}");
    }

    /// A guard held across a page read (line 5).
    const GUARD_ACROSS_READ: &str = "\
use gauss_storage::sync::{LockRank, TrackedMutex};\n\
pub fn scan(pool: &P) -> u32 {\n\
    let cache = TrackedMutex::new(0u32, LockRank::ResultSlot, 0, \"q\");\n\
    let slot = cache.lock();\n\
    let v = pool.read_page(7);\n\
    *slot + v\n\
}\n";

    #[test]
    fn guard_across_io_on_query_path() {
        let src = GUARD_ACROSS_READ;
        let f = facts_for("crates/core/src/query.rs", src);
        let gac: Vec<_> = f
            .local
            .iter()
            .filter(|f| f.rule == GUARD_ACROSS_CALL)
            .collect();
        assert_eq!(gac.len(), 1, "{:?}", f.local);
        assert_eq!(gac[0].line, 5);
        // Same code outside the query path is not flagged locally.
        let f = facts_for("crates/core/src/node.rs", src);
        assert!(f.local.iter().all(|f| f.rule != GUARD_ACROSS_CALL));
    }

    #[test]
    fn guard_across_io_in_read_plane_modules() {
        // The read-plane (node-cache reads) and the box-query descent are
        // on the query path too.
        for path in ["crates/core/src/view.rs", "crates/core/src/interval.rs"] {
            let f = facts_for(path, GUARD_ACROSS_READ);
            let lines: Vec<_> = f
                .local
                .iter()
                .filter(|f| f.rule == GUARD_ACROSS_CALL)
                .map(|f| f.line)
                .collect();
            assert_eq!(lines, [5], "{path}: {:?}", f.local);
        }
    }

    #[test]
    fn durability_meta_write_needs_sync() {
        let bad = "\
impl T {\n    pub fn flush(&mut self) {\n        self.pool.write(slot, &page);\n        self.pool.sync(d);\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", bad);
        let d: Vec<_> = f
            .local
            .iter()
            .filter(|f| f.rule == DURABILITY_PROTOCOL)
            .collect();
        assert_eq!(d.len(), 1, "{:?}", f.local);
        assert_eq!(d[0].line, 3);

        let good = "\
impl T {\n    pub fn flush(&mut self) {\n        self.pool.sync(d);\n        self.pool.write(slot, &page);\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", good);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));

        // Outside tree.rs/bulk.rs the rule does not apply.
        let f = facts_for("crates/core/src/node.rs", bad);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));
    }

    #[test]
    fn durability_manifest_write_needs_component_sync() {
        let bad = "\
impl T {\n    fn commit_manifest(&mut self) {\n        self.backend.write_manifest_slot(slot, &bytes);\n        self.backend.sync_manifest(d);\n    }\n}\n";
        let f = facts_for("crates/core/src/forest/mod.rs", bad);
        let d: Vec<_> = f
            .local
            .iter()
            .filter(|f| f.rule == DURABILITY_PROTOCOL)
            .collect();
        assert_eq!(d.len(), 1, "{:?}", f.local);
        assert_eq!(d[0].line, 3);

        let good = "\
impl T {\n    fn commit_manifest(&mut self) {\n        for c in &self.comps {\n            c.tree.pool().sync(d);\n        }\n        self.backend.write_manifest_slot(slot, &bytes);\n        self.backend.sync_manifest(d);\n    }\n}\n";
        let f = facts_for("crates/core/src/forest/mod.rs", good);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));

        // Backend *implementations* of the slot write are not in scope —
        // ordering is the committer's obligation, not the store's.
        let f = facts_for("crates/storage/src/forest.rs", bad);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));
    }

    #[test]
    fn durability_free_pending_protection() {
        let pop = "impl T {\n    fn alloc(&mut self) { self.free_pending.pop(); }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", pop);
        assert_eq!(
            f.local
                .iter()
                .filter(|f| f.rule == DURABILITY_PROTOCOL)
                .count(),
            1
        );

        let early = "impl T {\n    fn commit(&mut self) {\n        self.free_committed.append(&mut self.free_pending);\n        self.epoch = e;\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", early);
        assert_eq!(
            f.local
                .iter()
                .filter(|f| f.rule == DURABILITY_PROTOCOL)
                .count(),
            1,
            "append before epoch bump must report"
        );

        let ok = "impl T {\n    fn commit(&mut self) {\n        self.epoch = e;\n        self.free_committed.append(&mut self.free_pending);\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", ok);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));

        // `mem::take` is just another way of draining free_pending early.
        let take_early = "impl T {\n    fn commit(&mut self) {\n        let p = std::mem::take(&mut self.free_pending);\n        self.epoch = e;\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", take_early);
        assert_eq!(
            f.local
                .iter()
                .filter(|f| f.rule == DURABILITY_PROTOCOL)
                .count(),
            1,
            "take before epoch bump must report"
        );

        let take_ok = "impl T {\n    fn commit(&mut self) {\n        self.epoch = e;\n        let p = std::mem::take(&mut self.free_pending);\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", take_ok);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));
    }

    #[test]
    fn durability_free_aging_requires_min_pinned() {
        // Reclaiming aged pages without consulting the epoch registry
        // would hand a pinned snapshot's pages to the allocator.
        let blind = "impl T {\n    fn reap(&mut self) {\n        let p = self.free_aging.pop_front();\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", blind);
        assert_eq!(
            f.local
                .iter()
                .filter(|f| f.rule == DURABILITY_PROTOCOL)
                .count(),
            1,
            "free_aging reclaim without min_pinned must report"
        );

        let guarded = "impl T {\n    fn reap(&mut self) {\n        let min = self.registry.min_pinned();\n        if min.is_none() {\n            let p = self.free_aging.pop_front();\n        }\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", guarded);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));

        // Growing the aging list is always fine — only reclaim is gated.
        let push = "impl T {\n    fn park(&mut self) {\n        self.free_aging.push_back((e, p));\n    }\n}\n";
        let f = facts_for("crates/core/src/tree.rs", push);
        assert!(f.local.iter().all(|f| f.rule != DURABILITY_PROTOCOL));
    }

    #[test]
    fn ignored_io_result_detection() {
        let bad = "fn f(p: &P) {\n    let _ = p.sync(d);\n}\n";
        let f = facts_for("crates/core/src/x.rs", bad);
        let io: Vec<_> = f
            .local
            .iter()
            .filter(|f| f.rule == IGNORED_IO_RESULT)
            .collect();
        assert_eq!(io.len(), 1, "{:?}", f.local);
        assert_eq!(io[0].line, 2);

        // Consumed results are fine, in any scope.
        let ok = "fn f(p: &P) {\n    let _ = p.page(id).unwrap();\n    let _ = compute();\n}\n";
        assert!(facts_for("crates/core/src/x.rs", ok)
            .local
            .iter()
            .all(|f| f.rule != IGNORED_IO_RESULT));

        // Applies to tests too (relaxed set keeps io-result on).
        let f = facts_for("tests/smoke.rs", bad);
        assert_eq!(
            f.local
                .iter()
                .filter(|f| f.rule == IGNORED_IO_RESULT)
                .count(),
            1
        );

        // drop(...) form.
        let dropped = "fn f(p: &P) {\n    drop(p.write_page(id, &buf));\n}\n";
        let f = facts_for("crates/core/src/x.rs", dropped);
        assert_eq!(
            f.local
                .iter()
                .filter(|f| f.rule == IGNORED_IO_RESULT)
                .count(),
            1
        );
    }

    #[test]
    fn allows_silence_flow_rules_at_the_call_site() {
        let src = format!(
            "{POOL}    pub fn entry(&self) {{\n        let s = self.shard.lock();\n        // lint: allow(static-lock-order) -- fixture: documented escape\n        self.bottom();\n        let _ = s;\n    }}\n    fn bottom(&self) {{ let t = self.store.lock(); let _ = t; }}\n}}\n"
        );
        let all = lint_all(&[("crates/storage/src/x.rs", &src)]);
        assert!(all.iter().all(|f| f.rule != STATIC_LOCK_ORDER), "{all:?}");
    }

    #[test]
    fn test_files_are_out_of_lock_scope() {
        let src = format!(
            "{POOL}    pub fn inverted(&self) {{\n        let s = self.shard.lock();\n        let t = self.store.lock();\n        let _ = (s, t);\n    }}\n}}\n"
        );
        let f = facts_for("crates/storage/tests/lock_order.rs", &src);
        assert!(f.local.iter().all(|f| f.rule != STATIC_LOCK_ORDER));
        assert!(f.fns.is_empty(), "test fns stay out of the call graph");
    }
}
