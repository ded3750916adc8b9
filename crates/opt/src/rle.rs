//! Redundant load elimination (§3.4.1, Figures 6 and 7 of the paper).
//!
//! RLE combines two transformations over access paths:
//!
//! * **loop-invariant load motion** — a load executed on every iteration
//!   whose path cannot be modified inside the loop is hoisted to the loop
//!   preheader (Figure 6);
//! * **available-load CSE** — a load whose path is available on every
//!   incoming path (computed or stored, and not killed since) is replaced
//!   by a register reference (Figure 7).
//!
//! Both are parameterized by an [`AliasAnalysis`]: a store kills an
//! available path iff it may alias the path *or any of its prefixes*; a
//! call kills through the interprocedural [`ModRef`] summaries; an
//! indirect store kills every path whose address may be taken. Hidden
//! dope-vector loads are left untouched — they are implicit in the
//! high-level IR (the paper's Encapsulation category).
//!
//! **Kill masks.** Availability is a bit vector over a function's
//! interesting paths ([`Avail`]). Whether a killer — a stored path, a
//! wild store, a local or a global — kills one path does not depend on
//! the others, so [`KillCtx`] computes one mask per distinct killer, the
//! first time that killer is met, asking the analysis each
//! `(killer, prefix)` question once. Every transfer afterwards is a
//! word-parallel and-not of masks, whatever the dataflow pass. The
//! interesting paths of every function are gathered, and their prefixes
//! interned, before the first function is transformed, so a run takes
//! one snapshot of the program's [`ApTable`] (the table is append-only,
//! so a snapshot of the same length is the same table).
//!
//! Eliminated loads become reads of compiler scratch variables, which are
//! scalar locals and therefore modeled as registers by the machine model —
//! "leaving it up to the back end to place the hoisted memory reference in
//! a register", as the paper puts it.

use crate::modref::{method_targets, ModRef, Summary};
use mini_m3::check::GlobalId;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use tbaa::analysis::AliasAnalysis;
use tbaa_ir::cfg::{ensure_preheader, Cfg, NaturalLoop};
use tbaa_ir::ir::BlockId;
use tbaa_ir::ir::{Function, Instr, Operand, Program, SlotAddr, SlotBase, VarClass, VarDecl};
use tbaa_ir::path::{ApId, ApRoot, ApTable, FuncId, VarId};

/// Static counts of what RLE did (Table 6 reports their sum).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RleStats {
    /// Loads hoisted out of loops.
    pub hoisted: usize,
    /// Loads replaced by register references.
    pub eliminated: usize,
}

impl RleStats {
    /// Total loads removed statically — the Table 6 metric.
    pub fn removed(&self) -> usize {
        self.hoisted + self.eliminated
    }
}

impl std::ops::AddAssign for RleStats {
    fn add_assign(&mut self, rhs: Self) {
        self.hoisted += rhs.hoisted;
        self.eliminated += rhs.eliminated;
    }
}

/// A load site: `(function, block, instruction index)`.
pub type Site = (FuncId, BlockId, usize);

/// Availability of a load's access path just before the load executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteAvail {
    /// Available on **every** incoming path — RLE can eliminate it.
    pub must: bool,
    /// Available on **some** incoming path — partially redundant; the
    /// paper's *Conditional* category (PRE would catch it, RLE cannot).
    pub may: bool,
}

/// Computes must/may availability for every visible canonical load site
/// without transforming the program. The limit study (Figure 10) uses
/// this to attribute remaining dynamic redundancy.
pub fn availability_sites(
    prog: &mut Program,
    analysis: &dyn AliasAnalysis,
) -> HashMap<Site, SiteAvail> {
    let modref = ModRef::build(prog);
    let paths = PathSets::intern(prog);
    let summaries = callee_summaries(prog, &modref);
    let mut out = HashMap::new();
    for i in 0..prog.funcs.len() {
        let fid = FuncId(i as u32);
        let Some(ctx) = paths.ctx(fid, analysis) else {
            continue;
        };
        let func = prog.func(fid);
        let cfg = Cfg::new(func);
        let flow = MustMay::solve(func, &cfg, &ctx, &summaries);
        for &b in &cfg.rpo {
            let bi = b.0 as usize;
            let mut must = flow.must_in[bi].clone();
            let mut may = flow.may_in[bi].clone();
            for (ii, instr) in func.blocks[bi].instrs.iter().enumerate() {
                if let Instr::LoadMem {
                    ap, hidden: false, ..
                } = instr
                {
                    if let Some(i) = ctx.idx(*ap) {
                        out.insert(
                            (fid, b, ii),
                            SiteAvail {
                                must: must.contains(i),
                                may: may.contains(i),
                            },
                        );
                    }
                }
                transfer(instr, &mut must, &ctx, &summaries);
                transfer(instr, &mut may, &ctx, &summaries);
            }
        }
    }
    out
}

/// Runs RLE over every function of the program.
pub fn run_rle(prog: &mut Program, analysis: &dyn AliasAnalysis) -> RleStats {
    let modref = ModRef::build(prog);
    let paths = PathSets::intern(prog);
    let mut total = RleStats::default();
    for i in 0..prog.funcs.len() {
        let fid = FuncId(i as u32);
        if let Some(ctx) = paths.ctx(fid, analysis) {
            total += rle_function(prog, fid, &ctx, &modref);
        }
    }
    total
}

/// A dense bit vector over the function's interesting access paths.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Avail(pub(crate) Vec<u64>);

impl Avail {
    pub(crate) fn empty(n: usize) -> Self {
        Avail(vec![0; n.div_ceil(64)])
    }
    pub(crate) fn universal(n: usize) -> Self {
        let mut v = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = v.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        Avail(v)
    }
    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    pub(crate) fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
    pub(crate) fn intersect_assign(&mut self, o: &Avail) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a &= b;
        }
    }
    pub(crate) fn union_assign(&mut self, o: &Avail) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a |= b;
        }
    }
    pub(crate) fn and_not(&mut self, o: &Avail) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a &= !b;
        }
    }
    /// The set bits, in ascending order.
    pub(crate) fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len() * 64).filter(move |&i| self.contains(i))
    }
}

/// Anything an instruction may write, and so kill availability through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Killer {
    /// A store to this heap path.
    Store(ApId),
    /// An indirect store through a VAR-parameter location.
    Wild,
    /// An assignment to a local.
    Var(VarId),
    /// An assignment to a global.
    Global(GlobalId),
}

impl From<SlotBase> for Killer {
    fn from(base: SlotBase) -> Self {
        match base {
            SlotBase::Local(v) => Killer::Var(v),
            SlotBase::Global(g) => Killer::Global(g),
        }
    }
}

/// One function's interesting (canonical, visible) access paths.
pub(crate) struct FuncPaths {
    /// Interesting APs in dense order.
    interesting: Vec<ApId>,
    index: HashMap<ApId, usize>,
    /// Every distinct prefix of an interesting AP.
    prefix_ids: Vec<ApId>,
    /// For each interesting AP, its prefixes (1..=len steps) as indices
    /// into `prefix_ids`, self last.
    prefixes: Vec<Vec<usize>>,
}

/// The interesting paths of every function of a program, with one
/// snapshot of the program's [`ApTable`] that holds all their prefixes.
pub(crate) struct PathSets {
    aps: ApTable,
    funcs: Vec<Option<FuncPaths>>,
}

impl PathSets {
    /// Collects each function's interesting paths, interns their
    /// prefixes, then snapshots the table once.
    pub(crate) fn intern(prog: &mut Program) -> Self {
        let funcs = (0..prog.funcs.len())
            .map(|i| FuncPaths::intern(prog, FuncId(i as u32)))
            .collect();
        PathSets {
            aps: prog.aps.clone(),
            funcs,
        }
    }

    /// The kill context of one function, or `None` if it has no
    /// interesting paths.
    pub(crate) fn ctx<'a>(
        &'a self,
        fid: FuncId,
        analysis: &'a dyn AliasAnalysis,
    ) -> Option<KillCtx<'a>> {
        let paths = self.funcs[fid.0 as usize].as_ref()?;
        Some(KillCtx {
            analysis,
            aps: &self.aps,
            paths,
            masks: RefCell::default(),
        })
    }
}

impl FuncPaths {
    fn intern(prog: &mut Program, fid: FuncId) -> Option<Self> {
        let mut interesting: Vec<ApId> = Vec::new();
        let mut index: HashMap<ApId, usize> = HashMap::new();
        for b in &prog.func(fid).blocks {
            for instr in &b.instrs {
                let ap = match instr {
                    Instr::LoadMem {
                        ap, hidden: false, ..
                    } => *ap,
                    Instr::StoreMem { ap, .. } => *ap,
                    _ => continue,
                };
                if prog.aps.path(ap).is_canonical() && !index.contains_key(&ap) {
                    index.insert(ap, interesting.len());
                    interesting.push(ap);
                }
            }
        }
        if interesting.is_empty() {
            return None;
        }
        let mut prefix_ids: Vec<ApId> = Vec::new();
        let mut prefix_index: HashMap<ApId, usize> = HashMap::new();
        let mut prefixes = Vec::with_capacity(interesting.len());
        for &ap in &interesting {
            let path = prog.aps.path(ap).clone();
            let mut pvec = Vec::with_capacity(path.steps.len());
            for k in 1..=path.steps.len() {
                let mut p = path.clone();
                p.steps.truncate(k);
                let id = prog.aps.intern(p);
                pvec.push(*prefix_index.entry(id).or_insert_with(|| {
                    prefix_ids.push(id);
                    prefix_ids.len() - 1
                }));
            }
            prefixes.push(pvec);
        }
        Some(FuncPaths {
            interesting,
            index,
            prefix_ids,
            prefixes,
        })
    }
}

/// Per-function alias/kill context: the function's interesting paths and
/// one kill mask per killer, computed on first use.
pub(crate) struct KillCtx<'a> {
    analysis: &'a dyn AliasAnalysis,
    aps: &'a ApTable,
    paths: &'a FuncPaths,
    /// Which interesting paths each killer kills.
    masks: RefCell<HashMap<Killer, Avail>>,
}

impl<'a> KillCtx<'a> {
    pub(crate) fn n(&self) -> usize {
        self.paths.interesting.len()
    }

    pub(crate) fn idx(&self, ap: ApId) -> Option<usize> {
        self.paths.index.get(&ap).copied()
    }

    /// The interesting path with dense index `i`.
    pub(crate) fn ap(&self, i: usize) -> ApId {
        self.paths.interesting[i]
    }

    /// Clears from `avail` every path `killer` kills.
    pub(crate) fn kill(&self, avail: &mut Avail, killer: Killer) {
        let mut masks = self.masks.borrow_mut();
        avail.and_not(masks.entry(killer).or_insert_with(|| self.mask(killer)));
    }

    /// Which interesting paths `killer` kills: a store kills a path iff
    /// it may alias one of the path's prefixes; a wild store kills
    /// global-rooted paths and paths with a prefix it may modify; an
    /// assignment to a variable kills the paths that mention it.
    fn mask(&self, killer: Killer) -> Avail {
        let FuncPaths {
            interesting,
            prefix_ids,
            prefixes,
            ..
        } = self.paths;
        let hits: Vec<bool> = match killer {
            Killer::Store(s) => prefix_ids
                .iter()
                .map(|&p| self.analysis.may_alias(self.aps, s, p))
                .collect(),
            Killer::Wild => prefix_ids
                .iter()
                .map(|&p| self.analysis.wild_may_modify(self.aps, p))
                .collect(),
            Killer::Var(_) | Killer::Global(_) => Vec::new(),
        };
        let prefix_hit = |i: usize| prefixes[i].iter().any(|&p| hits[p]);
        let mut mask = Avail::empty(interesting.len());
        for (i, &ap) in interesting.iter().enumerate() {
            let path = self.aps.path(ap);
            let killed = match killer {
                Killer::Store(_) => prefix_hit(i),
                Killer::Wild => matches!(path.root, ApRoot::Global(_)) || prefix_hit(i),
                Killer::Var(v) => path.mentions_var(v),
                Killer::Global(g) => path.mentions_global(g),
            };
            if killed {
                mask.set(i);
            }
        }
        mask
    }

    /// Raw may-alias between an arbitrary path and an interesting one.
    pub(crate) fn analysis_may_alias(&self, a: ApId, i: usize) -> bool {
        self.analysis.may_alias(self.aps, a, self.ap(i))
    }
}

/// Applies the availability transfer function of one instruction.
pub(crate) fn transfer(
    instr: &Instr,
    avail: &mut Avail,
    ctx: &KillCtx<'_>,
    summaries: &dyn Fn(&Instr) -> Vec<Summary>,
) {
    match instr {
        Instr::LoadMem { ap, hidden, .. } if !hidden => {
            if let Some(i) = ctx.idx(*ap) {
                avail.set(i);
            }
        }
        Instr::StoreMem { ap, .. } => {
            ctx.kill(avail, Killer::Store(*ap));
            if let Some(i) = ctx.idx(*ap) {
                avail.set(i);
            }
        }
        Instr::StoreSlot { addr, .. } => ctx.kill(avail, addr.base.into()),
        Instr::StoreInd { .. } => ctx.kill(avail, Killer::Wild),
        Instr::Call {
            addr_aps,
            addr_slots,
            ..
        }
        | Instr::CallMethod {
            addr_aps,
            addr_slots,
            ..
        } => {
            for s in &summaries(instr) {
                for &stored in &s.stores {
                    ctx.kill(avail, Killer::Store(stored));
                }
                for &g in &s.stored_globals {
                    ctx.kill(avail, Killer::Global(g));
                }
                if s.wild_store {
                    ctx.kill(avail, Killer::Wild);
                }
            }
            for &ap in addr_aps {
                ctx.kill(avail, Killer::Store(ap));
            }
            for &sb in addr_slots {
                ctx.kill(avail, sb.into());
            }
        }
        _ => {}
    }
}

/// Must (every incoming path) and may (some incoming path) availability
/// of one function, solved to a fixpoint.
pub(crate) struct MustMay {
    /// Must-availability at each block's entry.
    pub(crate) must_in: Vec<Avail>,
    /// Must-availability at each block's exit.
    pub(crate) must_out: Vec<Avail>,
    /// May-availability at each block's entry.
    pub(crate) may_in: Vec<Avail>,
}

impl MustMay {
    /// MUST: intersection meet, universal init; MAY: union meet, empty
    /// init. Nothing is available at the entry block.
    pub(crate) fn solve(
        func: &Function,
        cfg: &Cfg,
        ctx: &KillCtx<'_>,
        summaries: &dyn Fn(&Instr) -> Vec<Summary>,
    ) -> Self {
        let n = ctx.n();
        let nb = func.blocks.len();
        let mut must_in: Vec<Avail> = (0..nb).map(|_| Avail::universal(n)).collect();
        let mut must_out: Vec<Avail> = (0..nb).map(|_| Avail::universal(n)).collect();
        let mut may_in: Vec<Avail> = (0..nb).map(|_| Avail::empty(n)).collect();
        let mut may_out: Vec<Avail> = (0..nb).map(|_| Avail::empty(n)).collect();
        must_in[0] = Avail::empty(n);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.rpo {
                let bi = b.0 as usize;
                let mut must = if bi == 0 {
                    Avail::empty(n)
                } else {
                    let mut acc = Avail::universal(n);
                    for &p in &cfg.preds[bi] {
                        acc.intersect_assign(&must_out[p.0 as usize]);
                    }
                    acc
                };
                let mut may = Avail::empty(n);
                for &p in &cfg.preds[bi] {
                    may.union_assign(&may_out[p.0 as usize]);
                }
                must_in[bi] = must.clone();
                may_in[bi] = may.clone();
                for instr in &func.blocks[bi].instrs {
                    transfer(instr, &mut must, ctx, summaries);
                    transfer(instr, &mut may, ctx, summaries);
                }
                if must != must_out[bi] || may != may_out[bi] {
                    must_out[bi] = must;
                    may_out[bi] = may;
                    changed = true;
                }
            }
        }
        MustMay {
            must_in,
            must_out,
            may_in,
        }
    }
}

pub(crate) fn callee_summaries<'a>(
    prog: &'a Program,
    modref: &'a ModRef,
) -> impl Fn(&Instr) -> Vec<Summary> + 'a {
    move |instr: &Instr| match instr {
        Instr::Call { func, .. } => vec![modref.summary(*func).clone()],
        Instr::CallMethod {
            method, recv_ty, ..
        } => method_targets(prog, *recv_ty, method)
            .into_iter()
            .map(|f| modref.summary(f).clone())
            .collect(),
        _ => Vec::new(),
    }
}

fn rle_function(prog: &mut Program, fid: FuncId, ctx: &KillCtx<'_>, modref: &ModRef) -> RleStats {
    RleStats {
        hoisted: licm(prog, fid, ctx, modref),
        eliminated: cse(prog, fid, ctx, modref),
    }
}

// ---- loop-invariant load motion --------------------------------------------

fn licm(prog: &mut Program, fid: FuncId, ctx: &KillCtx<'_>, modref: &ModRef) -> usize {
    let mut hoisted_total = 0;
    // Re-run until no loop has hoistable loads (hoisting changes the CFG).
    for _round in 0..64 {
        let cfg = Cfg::new(prog.func(fid));
        let loops = cfg.natural_loops();
        let mut moved = false;
        for lp in &loops {
            let positions = hoistable_positions(prog, fid, &cfg, lp, ctx, modref);
            if positions.is_empty() {
                continue;
            }
            let func = prog.func_mut(fid);
            let ph = ensure_preheader(func, &cfg, lp);
            // Extract in original order, then remove from their blocks.
            let mut extracted: Vec<Instr> = Vec::new();
            let mut by_block: HashMap<BlockId, Vec<usize>> = HashMap::new();
            for &(b, i) in &positions {
                by_block.entry(b).or_default().push(i);
            }
            // positions are already in dominance order (rpo, idx).
            for &(b, i) in &positions {
                extracted.push(func.blocks[b.0 as usize].instrs[i].clone());
            }
            for (b, mut idxs) in by_block {
                idxs.sort_unstable();
                for &i in idxs.iter().rev() {
                    func.blocks[b.0 as usize].instrs.remove(i);
                }
            }
            hoisted_total += extracted
                .iter()
                .filter(|i| matches!(i, Instr::LoadMem { hidden: false, .. }))
                .count();
            func.blocks[ph.0 as usize].instrs.extend(extracted);
            moved = true;
            break; // CFG changed: rebuild
        }
        if !moved {
            break;
        }
    }
    hoisted_total
}

/// Finds the backward slice of hoistable loop-invariant loads, in
/// dominance (rpo, index) order.
fn hoistable_positions(
    prog: &Program,
    fid: FuncId,
    cfg: &Cfg,
    lp: &NaturalLoop,
    ctx: &KillCtx<'_>,
    modref: &ModRef,
) -> Vec<(BlockId, usize)> {
    let func = prog.func(fid);
    let summaries = callee_summaries(prog, modref);

    // Gather loop-wide kill facts.
    let mut stored_aps: Vec<ApId> = Vec::new();
    let mut stored_locals: HashSet<VarId> = HashSet::new();
    let mut stored_globals: HashSet<GlobalId> = HashSet::new();
    let mut wild = false;
    let mut has_call = false;
    let mut defs_in_loop: HashMap<u32, usize> = HashMap::new();
    for &b in &lp.body {
        for instr in &func.blocks[b.0 as usize].instrs {
            if let Some(d) = instr.dst() {
                *defs_in_loop.entry(d.0).or_insert(0) += 1;
            }
            match instr {
                Instr::StoreMem { ap, .. } => stored_aps.push(*ap),
                Instr::StoreSlot { addr, .. } => match addr.base {
                    SlotBase::Local(v) => {
                        stored_locals.insert(v);
                    }
                    SlotBase::Global(g) => {
                        stored_globals.insert(g);
                    }
                },
                Instr::StoreInd { .. } => wild = true,
                Instr::Call {
                    addr_aps,
                    addr_slots,
                    ..
                }
                | Instr::CallMethod {
                    addr_aps,
                    addr_slots,
                    ..
                } => {
                    has_call = true;
                    stored_aps.extend(addr_aps.iter().copied());
                    for sb in addr_slots {
                        match sb {
                            SlotBase::Local(v) => {
                                stored_locals.insert(*v);
                            }
                            SlotBase::Global(g) => {
                                stored_globals.insert(*g);
                            }
                        }
                    }
                    for s in summaries(instr) {
                        stored_aps.extend(s.stores.iter().copied());
                        stored_globals.extend(s.stored_globals.iter().copied());
                        wild |= s.wild_store;
                    }
                }
                _ => {}
            }
        }
    }

    // Blocks that must be dominated: latches and in-loop exit sources.
    let mut must_dominate: Vec<BlockId> = lp.latches.clone();
    for &b in &lp.body {
        if cfg.succs[b.0 as usize].iter().any(|s| !lp.contains(*s)) && !must_dominate.contains(&b) {
            must_dominate.push(b);
        }
    }

    // Paths no store in the loop may modify.
    let mut unkilled = Avail::universal(ctx.n());
    for &s in &stored_aps {
        ctx.kill(&mut unkilled, Killer::Store(s));
    }
    if wild {
        ctx.kill(&mut unkilled, Killer::Wild);
    }

    // Loop positions in dominance order.
    let mut order: Vec<(BlockId, usize)> = Vec::new();
    for &b in &cfg.rpo {
        if lp.contains(b) {
            for i in 0..func.blocks[b.0 as usize].instrs.len() {
                order.push((b, i));
            }
        }
    }

    // Fixpoint-mark hoistable instructions.
    let mut hoistable: HashSet<(BlockId, usize)> = HashSet::new();
    let mut hoisted_regs: HashSet<u32> = HashSet::new();
    let operand_ok =
        |op: &Operand, hoisted_regs: &HashSet<u32>, defs: &HashMap<u32, usize>| match op {
            Operand::Reg(r) => !defs.contains_key(&r.0) || hoisted_regs.contains(&r.0),
            _ => true,
        };
    loop {
        let mut changed = false;
        for &(b, i) in &order {
            if hoistable.contains(&(b, i)) {
                continue;
            }
            if !must_dominate.iter().all(|&m| cfg.dominates(b, m)) {
                continue;
            }
            let instr = &func.blocks[b.0 as usize].instrs[i];
            let ok = match instr {
                Instr::LoadSlot { addr, .. } if addr.is_simple() => match addr.base {
                    SlotBase::Local(v) => {
                        !stored_locals.contains(&v)
                            && (func.vars[v.0 as usize].class == VarClass::Register
                                || (!wild && !has_call))
                    }
                    SlotBase::Global(g) => {
                        !stored_globals.contains(&g) && !wild && {
                            // calls may store globals; summaries already added
                            // them to stored_globals
                            true
                        }
                    }
                },
                Instr::Copy { src, .. } => operand_ok(src, &hoisted_regs, &defs_in_loop),
                Instr::Un { src, .. } => operand_ok(src, &hoisted_regs, &defs_in_loop),
                Instr::Bin { lhs, rhs, .. } => {
                    operand_ok(lhs, &hoisted_regs, &defs_in_loop)
                        && operand_ok(rhs, &hoisted_regs, &defs_in_loop)
                }
                Instr::ConstText { .. } => true,
                Instr::LoadMem {
                    addr,
                    ap,
                    hidden: false,
                    ..
                } => {
                    let Some(idx) = ctx.idx(*ap) else {
                        continue;
                    };
                    operand_ok(&addr.base, &hoisted_regs, &defs_in_loop)
                        && addr
                            .indices
                            .iter()
                            .all(|(op, _, _)| operand_ok(op, &hoisted_regs, &defs_in_loop))
                        && unkilled.contains(idx)
                }
                _ => false,
            };
            if ok {
                hoistable.insert((b, i));
                if let Some(d) = instr.dst() {
                    hoisted_regs.insert(d.0);
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Backward slice from hoistable LoadMems.
    let load_positions: Vec<(BlockId, usize)> = order
        .iter()
        .copied()
        .filter(|pos| {
            hoistable.contains(pos)
                && matches!(
                    func.blocks[pos.0 .0 as usize].instrs[pos.1],
                    Instr::LoadMem { hidden: false, .. }
                )
        })
        .collect();
    if load_positions.is_empty() {
        return Vec::new();
    }
    // Map reg -> defining hoistable position (unique defs only matter).
    let mut def_pos: HashMap<u32, (BlockId, usize)> = HashMap::new();
    for &(b, i) in &order {
        if hoistable.contains(&(b, i)) {
            if let Some(d) = func.blocks[b.0 as usize].instrs[i].dst() {
                def_pos.insert(d.0, (b, i));
            }
        }
    }
    let mut needed: HashSet<(BlockId, usize)> = HashSet::new();
    let mut work: Vec<(BlockId, usize)> = load_positions.clone();
    while let Some(pos) = work.pop() {
        if !needed.insert(pos) {
            continue;
        }
        let instr = &func.blocks[pos.0 .0 as usize].instrs[pos.1];
        let mut uses: Vec<Operand> = Vec::new();
        match instr {
            Instr::Copy { src, .. } | Instr::Un { src, .. } => uses.push(*src),
            Instr::Bin { lhs, rhs, .. } => {
                uses.push(*lhs);
                uses.push(*rhs);
            }
            Instr::LoadMem { addr, .. } => {
                uses.push(addr.base);
                for (op, _, _) in &addr.indices {
                    uses.push(*op);
                }
            }
            _ => {}
        }
        for u in uses {
            if let Operand::Reg(r) = u {
                if defs_in_loop.contains_key(&r.0) {
                    if let Some(&dp) = def_pos.get(&r.0) {
                        work.push(dp);
                    }
                }
            }
        }
    }
    let mut out: Vec<(BlockId, usize)> = order.into_iter().filter(|p| needed.contains(p)).collect();
    out.dedup();
    out
}

// ---- available-load CSE -----------------------------------------------------

fn cse(prog: &mut Program, fid: FuncId, ctx: &KillCtx<'_>, modref: &ModRef) -> usize {
    let n = ctx.n();
    let cfg = Cfg::new(prog.func(fid));
    // Precompute method-call summaries so the transfer closure does not
    // borrow `prog` (which the rewrite pass mutates).
    let mut method_sums: HashMap<(u32, String), Vec<Summary>> = HashMap::new();
    for b in &prog.func(fid).blocks {
        for instr in &b.instrs {
            if let Instr::CallMethod {
                recv_ty, method, ..
            } = instr
            {
                method_sums
                    .entry((recv_ty.0, method.clone()))
                    .or_insert_with(|| {
                        method_targets(prog, *recv_ty, method)
                            .into_iter()
                            .map(|f| modref.summary(f).clone())
                            .collect()
                    });
            }
        }
    }
    let summaries = move |instr: &Instr| -> Vec<Summary> {
        match instr {
            Instr::Call { func, .. } => vec![modref.summary(*func).clone()],
            Instr::CallMethod {
                recv_ty, method, ..
            } => method_sums
                .get(&(recv_ty.0, method.clone()))
                .cloned()
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    };
    let nb = prog.func(fid).blocks.len();

    // Forward dataflow: IN/OUT availability per block.
    let mut ins: Vec<Avail> = (0..nb).map(|_| Avail::universal(n)).collect();
    let mut outs: Vec<Avail> = (0..nb).map(|_| Avail::universal(n)).collect();
    ins[0] = Avail::empty(n);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let bi = b.0 as usize;
            let mut inset = if bi == 0 {
                Avail::empty(n)
            } else {
                let mut acc = Avail::universal(n);
                for &p in &cfg.preds[bi] {
                    acc.intersect_assign(&outs[p.0 as usize]);
                }
                acc
            };
            if inset != ins[bi] {
                ins[bi] = inset.clone();
            }
            for instr in &prog.func(fid).blocks[bi].instrs {
                transfer(instr, &mut inset, ctx, &summaries);
            }
            if inset != outs[bi] {
                outs[bi] = inset;
                changed = true;
            }
        }
    }

    // Dry pass: which APs are ever reused?
    let mut reuse = Avail::empty(n);
    for &b in &cfg.rpo {
        let bi = b.0 as usize;
        let mut avail = ins[bi].clone();
        for instr in &prog.func(fid).blocks[bi].instrs {
            if let Instr::LoadMem {
                ap, hidden: false, ..
            } = instr
            {
                if let Some(i) = ctx.idx(*ap) {
                    if avail.contains(i) {
                        reuse.set(i);
                    }
                }
            }
            transfer(instr, &mut avail, ctx, &summaries);
        }
    }
    if reuse.is_empty() {
        return 0;
    }

    // Allocate scratch slots for reused APs, in ascending path order so
    // the rewritten program is the same on every run.
    let integer = prog.types.integer();
    let mut scratch: HashMap<usize, VarId> = HashMap::new();
    {
        let func = prog.func_mut(fid);
        for i in reuse.iter_set() {
            let ty = ctx.aps.path(ctx.ap(i)).ty(integer);
            let v = VarId(func.vars.len() as u32);
            func.vars.push(VarDecl {
                name: format!("$rle{i}"),
                ty,
                size: 1,
                class: VarClass::Register,
            });
            scratch.insert(i, v);
        }
    }

    // Rewrite pass.
    let mut eliminated = 0usize;
    for &b in &cfg.rpo {
        let bi = b.0 as usize;
        let mut avail = ins[bi].clone();
        let old = std::mem::take(&mut prog.func_mut(fid).blocks[bi].instrs);
        let mut new_instrs = Vec::with_capacity(old.len());
        for instr in old {
            match &instr {
                Instr::LoadMem {
                    dst,
                    ap,
                    hidden: false,
                    ..
                } => {
                    let idx = ctx.idx(*ap);
                    if let Some(i) = idx {
                        if avail.contains(i) {
                            if let Some(&sv) = scratch.get(&i) {
                                new_instrs.push(Instr::LoadSlot {
                                    dst: *dst,
                                    addr: SlotAddr::var(SlotBase::Local(sv)),
                                });
                                eliminated += 1;
                                // AP remains available; no transfer needed
                                // (a scratch read generates/kills nothing).
                                continue;
                            }
                        }
                    }
                    let dst = *dst;
                    transfer(&instr, &mut avail, ctx, &summaries);
                    new_instrs.push(instr);
                    if let Some(i) = idx {
                        if let Some(&sv) = scratch.get(&i) {
                            new_instrs.push(Instr::StoreSlot {
                                addr: SlotAddr::var(SlotBase::Local(sv)),
                                src: Operand::Reg(dst),
                            });
                        }
                    }
                }
                Instr::StoreMem { ap, src, .. } => {
                    let idx = ctx.idx(*ap);
                    let src = *src;
                    transfer(&instr, &mut avail, ctx, &summaries);
                    new_instrs.push(instr);
                    if let Some(i) = idx {
                        if let Some(&sv) = scratch.get(&i) {
                            new_instrs.push(Instr::StoreSlot {
                                addr: SlotAddr::var(SlotBase::Local(sv)),
                                src,
                            });
                        }
                    }
                }
                _ => {
                    transfer(&instr, &mut avail, ctx, &summaries);
                    new_instrs.push(instr);
                }
            }
        }
        prog.func_mut(fid).blocks[bi].instrs = new_instrs;
    }
    eliminated
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::analysis::{Level, Tbaa};
    use tbaa::World;
    use tbaa_benchsuite::suite;
    use tbaa_ir::compile_to_ir;

    /// Every killer a transfer over `fid` can meet, plus the wild store.
    fn killers(prog: &Program, fid: FuncId, modref: &ModRef) -> Vec<Killer> {
        let summaries = callee_summaries(prog, modref);
        let mut out = vec![Killer::Wild];
        for instr in prog.func(fid).blocks.iter().flat_map(|b| &b.instrs) {
            match instr {
                Instr::StoreMem { ap, .. } => out.push(Killer::Store(*ap)),
                Instr::StoreSlot { addr, .. } => out.push(addr.base.into()),
                Instr::Call {
                    addr_aps,
                    addr_slots,
                    ..
                }
                | Instr::CallMethod {
                    addr_aps,
                    addr_slots,
                    ..
                } => {
                    out.extend(addr_aps.iter().map(|&ap| Killer::Store(ap)));
                    out.extend(addr_slots.iter().map(|&sb| Killer::from(sb)));
                    for s in summaries(instr) {
                        out.extend(s.stores.iter().map(|&ap| Killer::Store(ap)));
                        out.extend(s.stored_globals.iter().map(|&g| Killer::Global(g)));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// The per-path kill predicate a mask bit stands for, evaluated
    /// directly: prefixes are re-derived from the path itself.
    fn scalar_kills(
        analysis: &dyn AliasAnalysis,
        aps: &mut ApTable,
        killer: Killer,
        ap: ApId,
    ) -> bool {
        let path = aps.path(ap).clone();
        let before = aps.len();
        let prefixes: Vec<ApId> = (1..=path.steps.len())
            .map(|k| {
                let mut p = path.clone();
                p.steps.truncate(k);
                aps.intern(p)
            })
            .collect();
        assert_eq!(aps.len(), before, "prefixes of {ap:?} were interned");
        match killer {
            Killer::Store(s) => prefixes.iter().any(|&p| analysis.may_alias(aps, s, p)),
            Killer::Wild => {
                matches!(path.root, ApRoot::Global(_))
                    || prefixes.iter().any(|&p| analysis.wild_may_modify(aps, p))
            }
            Killer::Var(v) => path.mentions_var(v),
            Killer::Global(g) => path.mentions_global(g),
        }
    }

    #[test]
    fn kill_masks_match_the_scalar_predicates() {
        for b in suite() {
            let base = b.compile(1).unwrap();
            for level in Level::ALL {
                for world in [World::Closed, World::Open] {
                    let analysis = Tbaa::build(&base, level, world);
                    let mut prog = base.clone();
                    let paths = PathSets::intern(&mut prog);
                    let mut aps = paths.aps.clone();
                    let modref = ModRef::build(&prog);
                    for f in 0..prog.funcs.len() {
                        let fid = FuncId(f as u32);
                        let Some(ctx) = paths.ctx(fid, &analysis) else {
                            continue;
                        };
                        for killer in killers(&prog, fid, &modref) {
                            let mask = ctx.mask(killer);
                            for i in 0..ctx.n() {
                                assert_eq!(
                                    mask.contains(i),
                                    scalar_kills(&analysis, &mut aps, killer, ctx.ap(i)),
                                    "{} {level} {world:?} {fid:?} {killer:?} path {i}",
                                    b.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Counts every question the kill masks ask of the analysis.
    struct Counting<'a> {
        inner: &'a dyn AliasAnalysis,
        asked: RefCell<HashMap<(ApId, ApId), usize>>,
        wild_asked: RefCell<HashMap<ApId, usize>>,
    }

    impl AliasAnalysis for Counting<'_> {
        fn name(&self) -> &str {
            "counting"
        }
        fn may_alias(&self, aps: &ApTable, a: ApId, b: ApId) -> bool {
            *self.asked.borrow_mut().entry((a, b)).or_default() += 1;
            self.inner.may_alias(aps, a, b)
        }
        fn wild_may_modify(&self, aps: &ApTable, ap: ApId) -> bool {
            *self.wild_asked.borrow_mut().entry(ap).or_default() += 1;
            self.inner.wild_may_modify(aps, ap)
        }
    }

    #[test]
    fn rle_asks_each_kill_question_once_per_function() {
        let mut asked = 0;
        for b in suite() {
            let mut prog = b.compile(1).unwrap();
            let analysis = Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed);
            let modref = ModRef::build(&prog);
            let paths = PathSets::intern(&mut prog);
            for f in 0..prog.funcs.len() {
                let fid = FuncId(f as u32);
                let counting = Counting {
                    inner: &analysis,
                    asked: RefCell::default(),
                    wild_asked: RefCell::default(),
                };
                let Some(ctx) = paths.ctx(fid, &counting) else {
                    continue;
                };
                rle_function(&mut prog, fid, &ctx, &modref);
                for (pair, &k) in counting.asked.borrow().iter() {
                    assert_eq!(
                        k, 1,
                        "{} {fid:?}: may_alias{pair:?} asked {k} times",
                        b.name
                    );
                }
                for (ap, &k) in counting.wild_asked.borrow().iter() {
                    assert_eq!(
                        k, 1,
                        "{} {fid:?}: wild_may_modify({ap:?}) asked {k} times",
                        b.name
                    );
                }
                asked += counting.asked.borrow().len();
            }
        }
        assert!(asked > 0, "the suite has stores that kill");
    }

    #[test]
    fn rle_output_is_deterministic() {
        for b in suite() {
            for level in Level::ALL {
                let texts: Vec<String> = (0..2)
                    .map(|_| {
                        let mut prog = b.compile(1).unwrap();
                        let analysis = Tbaa::build(&prog, level, World::Closed);
                        run_rle(&mut prog, &analysis);
                        tbaa_ir::pretty::program(&prog)
                    })
                    .collect();
                assert_eq!(texts[0], texts[1], "{} {level}: RLE output differs", b.name);
            }
        }
    }

    fn count_visible_loads(p: &Program) -> usize {
        p.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i, Instr::LoadMem { hidden: false, .. }))
            .count()
    }

    fn rle_with(src: &str, level: Level) -> (Program, RleStats) {
        let mut p = compile_to_ir(src).unwrap();
        let a = Tbaa::build(&p, level, World::Closed);
        let stats = run_rle(&mut p, &a);
        (p, stats)
    }

    #[test]
    fn straightline_cse_eliminates_second_load() {
        let (p, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 5;
               x := t.f;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        // Store makes t.f available; both loads are redundant.
        assert_eq!(stats.eliminated, 2);
        assert_eq!(count_visible_loads(&p), 0);
    }

    #[test]
    fn intervening_may_alias_store_kills() {
        // Store to u.f may alias t.f (same field, compatible types), so the
        // second load survives.
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t, u: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               x := t.f;
               u.f := 9;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn intervening_different_field_does_not_kill() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             VAR t, u: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               x := t.f;
               u.g := 9;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 1, "t.f reloaded after unrelated store");
    }

    #[test]
    fn typedecl_vs_fieldtypedecl_opportunities() {
        // With TypeDecl the store to u.g kills t.f (all same-typed); with
        // FieldTypeDecl it does not — the Table 6 effect.
        let src = "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             VAR t, u: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               x := t.f;
               u.g := 9;
               y := t.f;
             END M.";
        let (_, td) = rle_with(src, Level::TypeDecl);
        let (_, ftd) = rle_with(src, Level::FieldTypeDecl);
        assert_eq!(td.eliminated, 0);
        assert_eq!(ftd.eliminated, 1);
    }

    #[test]
    fn loop_invariant_load_is_hoisted() {
        // Figure 6: a.b^ is loop invariant.
        let (p, stats) = rle_with(
            "MODULE M;
             TYPE Arr = ARRAY OF INTEGER; B = OBJECT data: Arr; END;
             VAR a: B; s: INTEGER;
             BEGIN
               a := NEW(B);
               a.data := NEW(Arr, 100);
               FOR i := 0 TO 99 DO
                 s := s + a.data[i];
               END;
             END M.",
            Level::SmFieldTypeRefs,
        );
        // a.data is hoisted out of the loop; a.data[i] stays (varying i).
        assert!(stats.hoisted >= 1, "stats: {stats:?}");
        let _ = p;
    }

    #[test]
    fn loop_with_aliasing_store_does_not_hoist() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t, u: T; s: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               t.f := 1;
               FOR i := 0 TO 9 DO
                 s := s + t.f;
                 u.f := i;
               END;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.hoisted, 0, "store to u.f may alias t.f");
    }

    #[test]
    fn call_with_store_kills_via_modref() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Clobber (u: T) = BEGIN u.f := 0 END Clobber;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               Clobber(t);
               y := t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn call_without_store_preserves_availability() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Pure (u: T): INTEGER = BEGIN RETURN u.f END Pure;
             VAR t: T; x, y, z: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               z := Pure(t);
               y := t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        assert_eq!(stats.eliminated, 1);
    }

    #[test]
    fn root_var_reassignment_kills() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               t := NEW(T);
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 0, "t changed; t.f is a new location");
    }

    #[test]
    fn prefix_store_kills_longer_path() {
        let (p, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
                  H = OBJECT t: T; END;
             VAR h: H; x, y: INTEGER;
             BEGIN
               h := NEW(H);
               h.t := NEW(T);
               x := h.t.f;
               h.t := NEW(T);
               y := h.t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        // Store-to-load forwarding removes both pointer loads of h.t, but
        // the store to the *prefix* h.t kills the availability of h.t.f,
        // so both .f loads must survive.
        assert_eq!(stats.eliminated, 2, "only the h.t pointer loads forward");
        assert_eq!(count_visible_loads(&p), 2, "both .f loads remain");
    }

    #[test]
    fn store_to_load_forwarding() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 41;
               x := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 1);
    }

    #[test]
    fn conditional_paths_not_eliminated() {
        // Partially redundant: load on one path only — RLE must not touch
        // it (the paper's Conditional category is exactly these).
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; c: BOOLEAN; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               IF c THEN x := t.f END;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn var_param_wild_store_kills_taken_fields() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Sneak (VAR v: INTEGER) = BEGIN v := 7 END Sneak;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               Sneak(t.f);
               y := t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        assert_eq!(stats.eliminated, 0, "address of t.f escapes to the call");
    }

    #[test]
    fn while_loop_invariant_hoists_in_rotated_form() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE Node = OBJECT v: INTEGER; next: Node; END;
                  H = OBJECT lim: INTEGER; END;
             VAR n: Node; h: H; s: INTEGER;
             BEGIN
               h := NEW(H); h.lim := 10;
               n := NEW(Node);
               WHILE s < h.lim DO
                 s := s + 1;
               END;
             END M.",
            Level::SmFieldTypeRefs,
        );
        // h.lim is loaded in the guard and in the bottom test; the bottom
        // test load is inside the loop and invariant -> hoisted or CSE'd.
        assert!(stats.removed() >= 1, "stats: {stats:?}");
    }
}
