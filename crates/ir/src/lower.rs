//! Lowering from the checked AST to the register IR.
//!
//! Besides code generation, lowering collects the three program facts the
//! alias analyses consume:
//!
//! * **access paths** — every heap load/store is annotated with its
//!   canonical source path (`a.b^.c`), interned in the program's
//!   [`crate::path::ApTable`];
//! * **AddressTaken** — VAR actuals and WITH bindings of heap designators
//!   record `(declared type, field)` / array-element facts (§2.3);
//! * **merges** — every explicit or implicit pointer assignment whose two
//!   sides have different declared types (§2.4: assignments, initializers,
//!   actual→formal bindings, RETURN values, method receiver bindings).
//!
//! Open-array subscripts emit a *hidden* dope-vector load for the bounds
//! check; those loads are invisible to RLE, reproducing the paper's
//! Encapsulation category.

use crate::ir::*;
use crate::path::*;
use crate::symbols::{Symbol, SymbolTable};
use mini_m3::ast::{BinOp, Expr, ExprId, Stmt, StmtId, UnOp};
use mini_m3::check::{
    Builtin, CallRes, CheckedModule, ConstVal, LocalId, NameRes, ProcId, VarKind, WithKind,
};
use mini_m3::error::{Diagnostics, Phase};
use mini_m3::span::Span;
use mini_m3::types::{ParamMode, TypeId, TypeKind};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Lowers a checked module to IR.
///
/// # Errors
///
/// Reports the few constructs the IR restricts (e.g. non-constant `BY`
/// steps) as diagnostics.
///
/// # Examples
///
/// ```
/// let checked = mini_m3::compile(
///     "MODULE M; VAR x: INTEGER; BEGIN x := 2 + 3 END M.")?;
/// let prog = tbaa_ir::lower::lower(checked).map_err(|e| e.to_string())?;
/// assert_eq!(prog.funcs.len(), 1); // just <main>
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lower(checked: CheckedModule) -> Result<Program, Diagnostics> {
    let mut lw = Lowerer::new(Arc::new(checked));
    lw.run();
    assemble(lw)
}

/// Assembles the final [`Program`] from a fully-driven [`Lowerer`] —
/// shared tail of [`lower`] and [`ModuleLowerer::finish`].
fn assemble(lw: Lowerer) -> Result<Program, Diagnostics> {
    if lw.diags.has_errors() {
        Err(lw.diags)
    } else {
        let main = FuncId(lw.checked.main.0);
        let method_impls = lw
            .checked
            .method_impls
            .iter()
            .map(|(&(t, ref m), &p)| ((t, m.clone()), FuncId(p.0)))
            .collect();
        // Reclaim the checked module's type table when this lowering
        // holds the last reference (always true once lowering is done);
        // a still-shared module pays one clone.
        let types = match Arc::try_unwrap(lw.checked) {
            Ok(checked) => checked.types,
            Err(shared) => shared.types.clone(),
        };
        Ok(Program {
            types,
            funcs: lw.funcs,
            main,
            globals: lw.globals,
            global_frame_size: lw.global_frame_size,
            texts: lw.texts,
            aps: lw.aps,
            symbols: lw.symbols,
            address_taken: lw.address_taken,
            method_impls,
            allocated_types: lw.allocated,
            merges: lw.merges,
        })
    }
}

/// Everything one function's lowering appended to the *module-shared*
/// lowering state, recorded as a replayable delta. This doubles as the
/// function's analysis **summary**: `merges` are its pointer-assignment
/// edges (§2.4) and `taken_fields`/`taken_elements` its `AddressTaken`
/// contributions (§2.3) — the global fixpoint (type hierarchy + Steensgaard
/// merge) is recombined from these without re-lowering the function.
///
/// Replaying the deltas in original function order onto identical prefix
/// state reproduces the exact shared tables (same ids, same order) that a
/// from-scratch lowering would build.
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct FuncEffects {
    /// Access paths this function was first to intern, in intern order.
    pub aps: Vec<AccessPath>,
    /// How many fresh temp roots it consumed.
    pub temps: u32,
    /// How many fresh opaque-index ids it consumed.
    pub opaques: u32,
    /// Field names it was first to intern, in intern order.
    pub symbols: Vec<String>,
    /// Text literals it was first to intern, in intern order.
    pub texts: Vec<String>,
    /// Pointer-assignment merges it recorded, in order.
    pub merges: Vec<Merge>,
    /// `AddressTaken` field facts it contributed (sorted for determinism).
    pub taken_fields: Vec<(TypeId, Symbol)>,
    /// `AddressTaken` element facts it contributed (sorted).
    pub taken_elements: Vec<TypeId>,
    /// Allocated types it contributed (sorted).
    pub allocated: Vec<TypeId>,
}

/// One function's lowering: the generated body plus its shared-state
/// effects, as produced by [`ModuleLowerer::lower_next`].
#[derive(Debug, Clone)]
pub struct FuncLowering {
    /// The lowered function body.
    pub func: Function,
    /// The shared-state delta its lowering produced.
    pub effects: FuncEffects,
    /// Whether lowering emitted no diagnostics. Only clean lowerings are
    /// safe to reuse: a diagnostic is part of the observable output and
    /// must be re-emitted by re-lowering.
    pub clean: bool,
}

/// Table positions before one unit is driven, for delta capture. The
/// address-taken/allocated deltas come from insertion-order logs the
/// [`Lowerer`] maintains alongside its sets, so capturing a unit no
/// longer clones three `HashSet`s up front.
struct Marks {
    aps: usize,
    temps: u32,
    opaques: u32,
    syms: usize,
    texts: usize,
    merges: usize,
    diags: usize,
    taken_fields: usize,
    taken_elements: usize,
    allocated: usize,
}

impl Marks {
    fn take(lw: &Lowerer) -> Marks {
        Marks {
            aps: lw.aps.len(),
            temps: lw.aps.temp_mark(),
            opaques: lw.aps.opaque_mark(),
            syms: lw.symbols.len(),
            texts: lw.texts.len(),
            merges: lw.merges.len(),
            diags: lw.diags.len(),
            taken_fields: lw.taken_fields_log.len(),
            taken_elements: lw.taken_elements_log.len(),
            allocated: lw.allocated_log.len(),
        }
    }

    /// The delta between the marks and the lowerer's current state, as a
    /// cacheable [`FuncLowering`] for the function just driven.
    fn capture(self, lw: &Lowerer) -> FuncLowering {
        let mut taken_fields = lw.taken_fields_log[self.taken_fields..].to_vec();
        taken_fields.sort_unstable();
        let mut taken_elements = lw.taken_elements_log[self.taken_elements..].to_vec();
        taken_elements.sort_unstable();
        let mut allocated = lw.allocated_log[self.allocated..].to_vec();
        allocated.sort_unstable();
        FuncLowering {
            func: lw.funcs.last().expect("a function was driven").clone(),
            effects: FuncEffects {
                aps: (self.aps..lw.aps.len())
                    .map(|i| lw.aps.path(ApId(i as u32)).clone())
                    .collect(),
                temps: lw.aps.temp_mark() - self.temps,
                opaques: lw.aps.opaque_mark() - self.opaques,
                symbols: lw
                    .symbols
                    .iter()
                    .skip(self.syms)
                    .map(|(_, n)| n.to_string())
                    .collect(),
                texts: lw.texts[self.texts..].to_vec(),
                merges: lw.merges[self.merges..].to_vec(),
                taken_fields,
                taken_elements,
                allocated,
            },
            clean: lw.diags.len() == self.diags,
        }
    }
}

/// A resumable, function-at-a-time driver over the same lowering engine as
/// [`lower`], for incremental compilation (`tbaa-incr`).
///
/// Call [`lower_next`](Self::lower_next) to lower the next function fresh
/// (capturing its [`FuncEffects`]) or [`replay_next`](Self::replay_next) to
/// splice in a cached [`FuncLowering`] without re-running the lowerer, then
/// [`finish`](Self::finish) once every function is accounted for. Driving
/// all functions through `lower_next` yields a program byte-identical to
/// [`lower`]; substituting `replay_next` for any prefix-compatible cached
/// unit preserves that equivalence.
pub struct ModuleLowerer {
    lw: Lowerer,
    next: u32,
}

impl ModuleLowerer {
    /// Starts lowering `checked`, with no function lowered yet.
    pub fn new(checked: CheckedModule) -> Self {
        ModuleLowerer {
            lw: Lowerer::new(Arc::new(checked)),
            next: 0,
        }
    }

    /// Total number of functions in the module (including `<main>`).
    pub fn num_procs(&self) -> usize {
        self.lw.checked.procs.len()
    }

    /// Index of the next function to lower or replay.
    pub fn position(&self) -> usize {
        self.next as usize
    }

    /// Lowers the next function fresh, capturing its shared-state effects.
    pub fn lower_next(&mut self) -> FuncLowering {
        let marks = Marks::take(&self.lw);
        self.lw.lower_func(ProcId(self.next));
        self.next += 1;
        marks.capture(&self.lw)
    }

    /// Splices a cached function in by replaying its shared-state delta.
    ///
    /// Sound only when the module-shared prefix state (header + effects of
    /// all earlier functions) is identical to the state the cached unit was
    /// lowered under — the caller (`tbaa-incr`) guarantees this by keying
    /// cache entries on a context hash chained over prior effects.
    pub fn replay_next(&mut self, cached: &FuncLowering) {
        let lw = &mut self.lw;
        lw.funcs.push(cached.func.clone());
        let eff = &cached.effects;
        for ap in &eff.aps {
            lw.aps.intern(ap.clone());
        }
        lw.aps.advance_counters(eff.temps, eff.opaques);
        for s in &eff.symbols {
            lw.symbols.intern(s);
        }
        for t in &eff.texts {
            lw.text_id(t);
        }
        lw.merges.extend_from_slice(&eff.merges);
        for &f in &eff.taken_fields {
            if lw.address_taken.fields.insert(f) {
                lw.taken_fields_log.push(f);
            }
        }
        for &t in &eff.taken_elements {
            if lw.address_taken.elements.insert(t) {
                lw.taken_elements_log.push(t);
            }
        }
        for &t in &eff.allocated {
            if lw.allocated.insert(t) {
                lw.allocated_log.push(t);
            }
        }
        self.next += 1;
    }

    /// Assembles the program once every function has been lowered or
    /// replayed.
    pub fn finish(self) -> Result<Program, Diagnostics> {
        debug_assert_eq!(
            self.next as usize,
            self.lw.checked.procs.len(),
            "finish() before all functions were driven"
        );
        assemble(self.lw)
    }
}

/// How a `LocalId` is realized in the current function.
#[derive(Debug, Clone)]
enum Binding {
    /// A plain frame slot.
    Slot(VarId),
    /// A VAR parameter: the slot holds a location value.
    VarParam(VarId),
    /// A WITH alias over a frozen place.
    Place(LPlace),
}

/// A lowered place: where a designator's storage is, plus its access path.
#[derive(Debug, Clone)]
struct LPlace {
    kind: LPlaceKind,
    ap: AccessPath,
}

#[derive(Debug, Clone)]
enum LPlaceKind {
    Slot(SlotAddr),
    Mem(MemAddr),
    Ind(Operand),
}

struct Lowerer {
    checked: Arc<CheckedModule>,
    diags: Diagnostics,
    funcs: Vec<Function>,
    globals: Vec<GlobalDecl>,
    global_frame_size: u32,
    texts: Vec<String>,
    text_intern: HashMap<String, u32>,
    aps: ApTable,
    symbols: SymbolTable,
    address_taken: AddressTakenInfo,
    /// Insertion-order logs mirroring the sets above/below: a unit's
    /// delta is a slice of the log, so per-unit capture never clones the
    /// sets themselves.
    taken_fields_log: Vec<(TypeId, Symbol)>,
    taken_elements_log: Vec<TypeId>,
    merges: Vec<Merge>,
    allocated: HashSet<TypeId>,
    allocated_log: Vec<TypeId>,
    // per-function state
    fid: FuncId,
    vars: Vec<VarDecl>,
    blocks: Vec<Block>,
    cur: BlockId,
    n_regs: u32,
    bindings: Vec<Binding>,
    loop_exits: Vec<BlockId>,
}

impl Lowerer {
    fn new(checked: Arc<CheckedModule>) -> Self {
        // Global frame layout.
        let mut globals = Vec::with_capacity(checked.globals.len());
        let mut off = 0u32;
        for g in &checked.globals {
            let size = checked.types.size_of(g.ty).max(1);
            globals.push(GlobalDecl {
                name: g.name.clone(),
                ty: g.ty,
                offset: off,
                size,
            });
            off += size;
        }
        // Cheap pre-scan over the expression arena: designator shapes
        // bound how many access paths the module can intern, Qualify
        // expressions its field symbols, Text its literals. Pre-sizing
        // the intern tables avoids mid-module rehash/regrow churn.
        let mut ap_cap = 0usize;
        let mut sym_cap = 0usize;
        let mut text_cap = 0usize;
        for e in &checked.ast.exprs {
            match e {
                Expr::Qualify { .. } => {
                    ap_cap += 1;
                    sym_cap += 1;
                }
                Expr::Deref(_) | Expr::Index { .. } => ap_cap += 2,
                Expr::Text(_) => text_cap += 1,
                _ => {}
            }
        }
        Lowerer {
            diags: Diagnostics::new(),
            funcs: Vec::with_capacity(checked.procs.len()),
            globals,
            global_frame_size: off,
            texts: Vec::with_capacity(text_cap),
            text_intern: HashMap::with_capacity(text_cap),
            aps: ApTable::with_capacity(ap_cap),
            symbols: SymbolTable::with_capacity(sym_cap),
            address_taken: AddressTakenInfo::default(),
            taken_fields_log: Vec::new(),
            taken_elements_log: Vec::new(),
            merges: Vec::new(),
            allocated: HashSet::new(),
            allocated_log: Vec::new(),
            fid: FuncId(0),
            vars: Vec::new(),
            blocks: Vec::new(),
            cur: BlockId(0),
            n_regs: 0,
            bindings: Vec::new(),
            loop_exits: Vec::new(),
            checked,
        }
    }

    fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.error(Phase::Lower, span, msg);
    }

    fn run(&mut self) {
        for i in 0..self.checked.procs.len() {
            self.lower_func(ProcId(i as u32));
        }
    }

    // ---- small helpers ---------------------------------------------------

    fn ty(&self, e: ExprId) -> TypeId {
        self.checked.ty(e)
    }

    fn reg(&mut self) -> Reg {
        let r = Reg(self.n_regs);
        self.n_regs += 1;
        r
    }

    fn emit(&mut self, instr: Instr) {
        self.blocks[self.cur.0 as usize].instrs.push(instr);
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    fn terminate(&mut self, term: Terminator) {
        self.blocks[self.cur.0 as usize].term = term;
    }

    /// Terminates the current block with a jump and switches to `next`.
    fn goto(&mut self, next: BlockId) {
        self.terminate(Terminator::Jump(next));
        self.cur = next;
    }

    fn scratch(&mut self, name: &str, ty: TypeId, size: u32, class: VarClass) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: format!("${name}{}", id.0),
            ty,
            size,
            class,
        });
        id
    }

    fn text_id(&mut self, t: &str) -> u32 {
        if let Some(&i) = self.text_intern.get(t) {
            return i;
        }
        let i = self.texts.len() as u32;
        self.texts.push(t.to_string());
        self.text_intern.insert(t.to_string(), i);
        i
    }

    /// Marks a local var as living in stack memory.
    fn make_stack(&mut self, v: VarId) {
        self.vars[v.0 as usize].class = VarClass::Stack;
    }

    /// Records a pointer-assignment merge if both sides are pointer types
    /// with different declared types (NIL assignments merge nothing).
    fn record_merge(&mut self, dst: TypeId, src: TypeId) {
        let types = &self.checked.types;
        if dst != src && types.is_pointer(dst) && types.is_pointer(src) {
            self.merges.push((dst, src));
        }
    }

    /// Records that the address of `ap`'s final step is taken.
    fn record_address_taken(&mut self, ap: &AccessPath) {
        match ap.steps.last() {
            Some(ApStep::Field { name, base_ty, .. }) => {
                let f = (*base_ty, *name);
                if self.address_taken.fields.insert(f) {
                    self.taken_fields_log.push(f);
                }
            }
            Some(ApStep::Index { base_ty, .. }) if self.address_taken.elements.insert(*base_ty) => {
                self.taken_elements_log.push(*base_ty);
            }
            _ => {}
        }
    }

    // ---- function lowering ------------------------------------------------

    fn lower_func(&mut self, pid: ProcId) {
        let checked = Arc::clone(&self.checked);
        let pinfo = checked.proc(pid);
        self.fid = FuncId(pid.0);
        self.vars = Vec::with_capacity(pinfo.locals.len());
        self.blocks = vec![Block::new()];
        self.cur = BlockId(0);
        self.n_regs = 0;
        self.bindings.clear();
        self.loop_exits.clear();

        let mut param_modes = Vec::with_capacity(pinfo.n_params as usize);
        for (i, l) in pinfo.locals.iter().enumerate() {
            let is_param = (i as u32) < pinfo.n_params;
            let size = checked.types.size_of(l.ty).max(1);
            let scalar = checked.types.is_scalar(l.ty);
            let class = if scalar {
                VarClass::Register
            } else {
                VarClass::Stack
            };
            let v = VarId(self.vars.len() as u32);
            self.vars.push(VarDecl {
                name: l.name.clone(),
                ty: l.ty,
                size,
                class,
            });
            let binding = match l.kind {
                VarKind::Param(ParamMode::Var) => {
                    param_modes.push(ParamMode::Var);
                    Binding::VarParam(v)
                }
                VarKind::Param(ParamMode::Value) => {
                    param_modes.push(ParamMode::Value);
                    Binding::Slot(v)
                }
                _ => Binding::Slot(v),
            };
            let _ = is_param;
            self.bindings.push(binding);
        }

        // Local initializers (declared locals of the source procedure), or
        // global initializers when lowering <main>.
        if pid == checked.main {
            for &(gid, init) in &checked.global_inits {
                let gty = checked.globals[gid.0 as usize].ty;
                let ity = self.ty(init);
                let op = self.lower_expr(init);
                self.record_merge(gty, ity);
                self.emit(Instr::StoreSlot {
                    addr: SlotAddr::var(SlotBase::Global(gid)),
                    src: op,
                });
            }
        } else {
            let pdecl = &checked.ast.procs[pid.0 as usize];
            // Map declared local names (after params) to binding indices in
            // declaration order; checker laid them out contiguously.
            let mut next = pinfo.n_params as usize;
            for vd in &pdecl.locals {
                for _name in &vd.names {
                    if let Some(init) = vd.init {
                        let lid = LocalId(next as u32);
                        let ity = self.ty(init);
                        let op = self.lower_expr(init);
                        let &Binding::Slot(v) = &self.bindings[lid.0 as usize] else {
                            unreachable!("declared locals are slots");
                        };
                        let lty = self.vars[v.0 as usize].ty;
                        self.record_merge(lty, ity);
                        self.emit(Instr::StoreSlot {
                            addr: SlotAddr::var(SlotBase::Local(v)),
                            src: op,
                        });
                    }
                    next += 1;
                }
            }
        }

        for &s in &pinfo.body {
            self.lower_stmt(s);
        }

        self.funcs.push(Function {
            name: pinfo.name.clone(),
            n_params: pinfo.n_params,
            param_modes,
            ret: pinfo.ret,
            vars: std::mem::take(&mut self.vars),
            blocks: std::mem::take(&mut self.blocks),
            n_regs: self.n_regs,
        });
    }

    // ---- statements --------------------------------------------------------

    fn lower_stmt(&mut self, s: StmtId) {
        let checked = Arc::clone(&self.checked);
        match checked.ast.stmt(s) {
            Stmt::Assign { lhs, rhs } => self.lower_assign(*lhs, *rhs),
            Stmt::Call(e) => {
                self.lower_call(*e, false);
            }
            &Stmt::Eval(e) => {
                let ty = self.ty(e);
                if checked.types.is_scalar(ty) {
                    let _ = self.lower_expr(e);
                } else {
                    let span = checked.ast.expr_span(e);
                    self.error(span, "EVAL of an aggregate value is not supported");
                }
            }
            Stmt::If { arms, else_body } => {
                let join = self.new_block();
                for (cond, body) in arms {
                    let then_bb = self.new_block();
                    let next_bb = self.new_block();
                    let c = self.lower_expr(*cond);
                    self.terminate(Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb: next_bb,
                    });
                    self.cur = then_bb;
                    for &st in body {
                        self.lower_stmt(st);
                    }
                    self.terminate(Terminator::Jump(join));
                    self.cur = next_bb;
                }
                for &st in else_body {
                    self.lower_stmt(st);
                }
                self.goto(join);
            }
            Stmt::While { cond, body } => {
                // Rotated (guard + bottom-test) form: the body dominates the
                // latch and every exit edge, so loop-invariant loads can be
                // hoisted without speculation.
                let body_bb = self.new_block();
                let exit = self.new_block();
                let c = self.lower_expr(*cond); // guard
                self.terminate(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.cur = body_bb;
                self.loop_exits.push(exit);
                for &st in body {
                    self.lower_stmt(st);
                }
                self.loop_exits.pop();
                let c2 = self.lower_expr(*cond); // bottom test
                self.terminate(Terminator::Branch {
                    cond: c2,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.cur = exit;
            }
            Stmt::Repeat { body, cond } => {
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.goto(body_bb);
                self.loop_exits.push(exit);
                for &st in body {
                    self.lower_stmt(st);
                }
                self.loop_exits.pop();
                let c = self.lower_expr(*cond);
                self.terminate(Terminator::Branch {
                    cond: c,
                    then_bb: exit,
                    else_bb: body_bb,
                });
                self.cur = exit;
            }
            Stmt::Loop { body } => {
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.goto(body_bb);
                self.loop_exits.push(exit);
                for &st in body {
                    self.lower_stmt(st);
                }
                self.loop_exits.pop();
                self.terminate(Terminator::Jump(body_bb));
                self.cur = exit;
            }
            Stmt::Exit => {
                let Some(&exit) = self.loop_exits.last() else {
                    return; // checker already reported
                };
                self.terminate(Terminator::Jump(exit));
                self.cur = self.new_block(); // unreachable continuation
            }
            Stmt::For {
                var: _,
                from,
                to,
                by,
                body,
            } => self.lower_for(s, *from, *to, *by, body),
            &Stmt::Return(value) => {
                let op = value.map(|v| {
                    let vty = self.ty(v);
                    let o = self.lower_expr(v);
                    if let Some(rt) = checked.proc(ProcId(self.fid.0)).ret {
                        self.record_merge(rt, vty);
                    }
                    o
                });
                self.terminate(Terminator::Return(op));
                self.cur = self.new_block();
            }
            Stmt::With { bindings, body } => {
                let lids = &checked.stmt_locals[&s];
                for (i, (_name, e)) in bindings.iter().enumerate() {
                    let kind = checked.with_kinds[&(s, i)];
                    let lid = lids[i];
                    match kind {
                        WithKind::Alias => {
                            let mut place = self.lower_place(*e);
                            // WITH of a heap designator takes its address.
                            if matches!(place.kind, LPlaceKind::Mem(_)) {
                                self.record_address_taken(&place.ap);
                                // The alias freezes the *location*: if the
                                // path's root variable is reassigned inside
                                // the body, the recorded path would describe
                                // a different location than the alias
                                // accesses. Re-root it at a unique temp —
                                // still type- and shape-accurate for alias
                                // queries (sound kills), but never treated
                                // as the same expression by RLE (no unsound
                                // availability).
                                place.ap.root = ApRoot::Temp(self.aps.fresh_temp());
                            }
                            if let LPlaceKind::Slot(addr) = &place.kind {
                                if let SlotBase::Local(v) = addr.base {
                                    // An alias to a local keeps it addressable.
                                    self.make_stack(v);
                                }
                            }
                            self.bindings[lid.0 as usize] = Binding::Place(place);
                        }
                        WithKind::Value => {
                            let op = self.lower_expr(*e);
                            let &Binding::Slot(v) = &self.bindings[lid.0 as usize] else {
                                unreachable!("WITH value bindings start as slots");
                            };
                            self.emit(Instr::StoreSlot {
                                addr: SlotAddr::var(SlotBase::Local(v)),
                                src: op,
                            });
                        }
                    }
                }
                for &st in body {
                    self.lower_stmt(st);
                }
            }
        }
    }

    fn lower_for(
        &mut self,
        s: StmtId,
        from: ExprId,
        to: ExprId,
        by: Option<ExprId>,
        body: &[StmtId],
    ) {
        let int = self.checked.types.integer();
        // The loop variable slot was allocated by the checker.
        let lid = self.checked.stmt_locals[&s][0];
        let &Binding::Slot(idx_var) = &self.bindings[lid.0 as usize] else {
            unreachable!("FOR index is a slot");
        };
        let step = match by {
            None => 1,
            Some(b) => match self.const_int(b) {
                Some(v) if v != 0 => v,
                _ => {
                    let span = self.checked.ast.expr_span(b);
                    self.error(span, "BY step must be a non-zero integer constant");
                    1
                }
            },
        };
        let from_op = self.lower_expr(from);
        self.emit(Instr::StoreSlot {
            addr: SlotAddr::var(SlotBase::Local(idx_var)),
            src: from_op,
        });
        // Evaluate the limit once.
        let to_op = self.lower_expr(to);
        let limit = self.scratch("limit", int, 1, VarClass::Register);
        self.emit(Instr::StoreSlot {
            addr: SlotAddr::var(SlotBase::Local(limit)),
            src: to_op,
        });
        // Rotated form: guard test, then a bottom-tested body.
        let body_bb = self.new_block();
        let exit = self.new_block();
        let test = |lw: &mut Self| {
            let i = lw.reg();
            lw.emit(Instr::LoadSlot {
                dst: i,
                addr: SlotAddr::var(SlotBase::Local(idx_var)),
            });
            let l = lw.reg();
            lw.emit(Instr::LoadSlot {
                dst: l,
                addr: SlotAddr::var(SlotBase::Local(limit)),
            });
            let c = lw.reg();
            lw.emit(Instr::Bin {
                dst: c,
                op: if step > 0 { BinOp::Le } else { BinOp::Ge },
                lhs: i.into(),
                rhs: l.into(),
            });
            c
        };
        let c = test(self);
        self.terminate(Terminator::Branch {
            cond: c.into(),
            then_bb: body_bb,
            else_bb: exit,
        });
        self.cur = body_bb;
        self.loop_exits.push(exit);
        for &st in body {
            self.lower_stmt(st);
        }
        self.loop_exits.pop();
        // Latch: i := i + step, then the bottom test.
        let i2 = self.reg();
        self.emit(Instr::LoadSlot {
            dst: i2,
            addr: SlotAddr::var(SlotBase::Local(idx_var)),
        });
        let inc = self.reg();
        self.emit(Instr::Bin {
            dst: inc,
            op: BinOp::Add,
            lhs: i2.into(),
            rhs: Operand::ImmInt(step),
        });
        self.emit(Instr::StoreSlot {
            addr: SlotAddr::var(SlotBase::Local(idx_var)),
            src: inc.into(),
        });
        let c2 = test(self);
        self.terminate(Terminator::Branch {
            cond: c2.into(),
            then_bb: body_bb,
            else_bb: exit,
        });
        self.cur = exit;
    }

    fn const_int(&self, e: ExprId) -> Option<i64> {
        match self.checked.ast.expr(e) {
            Expr::Int(v) => Some(*v),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => self.const_int(*expr).map(|v| -v),
            Expr::Name(_) => match self.checked.name_res.get(&e) {
                Some(NameRes::Const(ConstVal::Int(v))) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    fn lower_assign(&mut self, lhs: ExprId, rhs: ExprId) {
        let lty = self.ty(lhs);
        let rty = self.ty(rhs);
        if matches!(self.checked.types.kind(lty), TypeKind::Record { .. }) {
            // Aggregate assignment: break into component accesses (§2.3).
            let src = self.lower_place(rhs);
            let dst = self.lower_place(lhs);
            self.copy_aggregate(&dst, &src, lty);
            return;
        }
        let op = self.lower_expr(rhs);
        self.record_merge(lty, rty);
        let place = self.lower_place(lhs);
        self.store_place(&place, op);
    }

    /// Copies an aggregate value component by component.
    fn copy_aggregate(&mut self, dst: &LPlace, src: &LPlace, ty: TypeId) {
        let components = self.scalar_components(ty, 0, Vec::new());
        for (offset, steps, _cty) in components {
            let sp = self.extend_place(src, offset, &steps);
            let dp = self.extend_place(dst, offset, &steps);
            let r = self.reg();
            self.load_place_into(&sp, r);
            self.store_place(&dp, r.into());
        }
    }

    /// Flattens `ty` into `(slot offset, ap steps, component type)` scalars.
    fn scalar_components(
        &mut self,
        ty: TypeId,
        base_off: u32,
        base_steps: Vec<ApStep>,
    ) -> Vec<(u32, Vec<ApStep>, TypeId)> {
        let checked = Arc::clone(&self.checked);
        match checked.types.kind(ty) {
            TypeKind::Record { fields } => {
                let mut out = Vec::new();
                for f in fields {
                    let mut steps = base_steps.clone();
                    steps.push(ApStep::Field {
                        name: self.symbols.intern(&f.name),
                        base_ty: ty,
                        ty: f.ty,
                    });
                    out.extend(self.scalar_components(f.ty, base_off + f.offset, steps));
                }
                out
            }
            &TypeKind::Array {
                range: Some((lo, hi)),
                elem,
            } => {
                let esz = checked.types.size_of(elem);
                let mut out = Vec::new();
                for k in 0..=(hi - lo).max(-1) {
                    let mut steps = base_steps.clone();
                    steps.push(ApStep::Index {
                        index: ApIndex::Const(lo + k),
                        base_ty: ty,
                        ty: elem,
                    });
                    out.extend(self.scalar_components(elem, base_off + (k as u32) * esz, steps));
                }
                out
            }
            _ => vec![(base_off, base_steps, ty)],
        }
    }

    fn extend_place(&mut self, p: &LPlace, offset: u32, steps: &[ApStep]) -> LPlace {
        let mut ap = p.ap.clone();
        ap.steps.extend(steps.iter().cloned());
        let kind = match &p.kind {
            LPlaceKind::Slot(a) => {
                let mut a = a.clone();
                a.offset += offset;
                LPlaceKind::Slot(a)
            }
            LPlaceKind::Mem(a) => {
                let mut a = a.clone();
                a.offset += offset;
                LPlaceKind::Mem(a)
            }
            LPlaceKind::Ind(_) => {
                unreachable!("aggregates are never accessed through VAR locations")
            }
        };
        LPlace { kind, ap }
    }

    // ---- places ------------------------------------------------------------

    /// Lowers a designator to a place.
    fn lower_place(&mut self, e: ExprId) -> LPlace {
        let checked = Arc::clone(&self.checked);
        match checked.ast.expr(e) {
            Expr::Name(_) => match checked.name_res.get(&e) {
                Some(&NameRes::Local(l)) => match &self.bindings[l.0 as usize] {
                    &Binding::Slot(v) => LPlace {
                        kind: LPlaceKind::Slot(SlotAddr::var(SlotBase::Local(v))),
                        ap: AccessPath {
                            root: ApRoot::Local {
                                func: self.fid,
                                var: v,
                            },
                            root_ty: self.vars[v.0 as usize].ty,
                            steps: vec![],
                        },
                    },
                    &Binding::VarParam(v) => {
                        let r = self.reg();
                        self.emit(Instr::LoadSlot {
                            dst: r,
                            addr: SlotAddr::var(SlotBase::Local(v)),
                        });
                        LPlace {
                            kind: LPlaceKind::Ind(r.into()),
                            ap: AccessPath {
                                root: ApRoot::Temp(self.aps.fresh_temp()),
                                root_ty: self.vars[v.0 as usize].ty,
                                steps: vec![],
                            },
                        }
                    }
                    Binding::Place(p) => p.clone(),
                },
                Some(&NameRes::Global(g)) => LPlace {
                    kind: LPlaceKind::Slot(SlotAddr::var(SlotBase::Global(g))),
                    ap: AccessPath {
                        root: ApRoot::Global(g),
                        root_ty: checked.globals[g.0 as usize].ty,
                        steps: vec![],
                    },
                },
                _ => unreachable!("checker guarantees designators resolve to variables"),
            },
            Expr::Qualify { base, field } => {
                let base = *base;
                let bty = self.ty(base);
                let f = checked
                    .types
                    .field(bty, field)
                    .expect("checker verified field");
                match checked.types.kind(bty) {
                    TypeKind::Object { .. } => {
                        // The base is a reference value: load it, then field.
                        let (b, bap) = self.lower_expr_with_ap(base);
                        let mut ap = bap;
                        ap.steps.push(ApStep::Field {
                            name: self.symbols.intern(field),
                            base_ty: bty,
                            ty: f.ty,
                        });
                        LPlace {
                            kind: LPlaceKind::Mem(MemAddr {
                                base: b,
                                offset: f.offset,
                                indices: vec![],
                            }),
                            ap,
                        }
                    }
                    TypeKind::Record { .. } => {
                        // The base is itself a place; extend in place.
                        let bp = self.lower_place(base);
                        let step = ApStep::Field {
                            name: self.symbols.intern(field),
                            base_ty: bty,
                            ty: f.ty,
                        };
                        self.extend_place(&bp, f.offset, std::slice::from_ref(&step))
                    }
                    _ => unreachable!("checker verified qualify base"),
                }
            }
            &Expr::Deref(base) => {
                let bty = self.ty(base);
                let TypeKind::Ref { target, .. } = checked.types.kind(bty) else {
                    unreachable!("checker verified deref base");
                };
                let target = *target;
                let (b, bap) = self.lower_expr_with_ap(base);
                let mut ap = bap;
                ap.steps.push(ApStep::Deref { ty: target });
                LPlace {
                    kind: LPlaceKind::Mem(MemAddr {
                        base: b,
                        offset: 0,
                        indices: vec![],
                    }),
                    ap,
                }
            }
            &Expr::Index { base, index } => {
                let bty = self.ty(base);
                let &TypeKind::Array { range, elem } = checked.types.kind(bty) else {
                    unreachable!("checker verified index base");
                };
                let esz = checked.types.size_of(elem);
                let idx_ap = self.canonical_index(index);
                let idx_op = self.lower_expr(index);
                match range {
                    None => {
                        // Open array: the base is a reference; slot 0 is the
                        // dope (length), elements start at slot 1. Emit the
                        // hidden bounds-check load of the dope slot.
                        let (b, bap) = self.lower_expr_with_ap(base);
                        let mut len_ap = bap.clone();
                        len_ap.steps.push(ApStep::DopeLen { base_ty: bty });
                        let len_ap = self.aps.intern(len_ap);
                        let lr = self.reg();
                        self.emit(Instr::LoadMem {
                            dst: lr,
                            addr: MemAddr {
                                base: b,
                                offset: 0,
                                indices: vec![],
                            },
                            ap: len_ap,
                            hidden: true,
                        });
                        let mut ap = bap;
                        ap.steps.push(ApStep::Index {
                            index: idx_ap,
                            base_ty: bty,
                            ty: elem,
                        });
                        LPlace {
                            kind: LPlaceKind::Mem(MemAddr {
                                base: b,
                                offset: 1,
                                indices: vec![(idx_op, 0, esz)],
                            }),
                            ap,
                        }
                    }
                    Some((lo, _hi)) => {
                        // Fixed array: extends the base place.
                        let bp = self.lower_place(base);
                        let mut ap = bp.ap.clone();
                        ap.steps.push(ApStep::Index {
                            index: idx_ap,
                            base_ty: bty,
                            ty: elem,
                        });
                        let kind = match &bp.kind {
                            LPlaceKind::Slot(a) => {
                                let mut a = a.clone();
                                a.indices.push((idx_op, lo, esz));
                                LPlaceKind::Slot(a)
                            }
                            LPlaceKind::Mem(a) => {
                                let mut a = a.clone();
                                a.indices.push((idx_op, lo, esz));
                                LPlaceKind::Mem(a)
                            }
                            LPlaceKind::Ind(_) => {
                                unreachable!("fixed arrays are never VAR-located")
                            }
                        };
                        LPlace { kind, ap }
                    }
                }
            }
            _ => unreachable!("checker guarantees only designators reach lower_place"),
        }
    }

    /// Canonicalizes an index expression for AP identity.
    fn canonical_index(&mut self, e: ExprId) -> ApIndex {
        let checked = Arc::clone(&self.checked);
        match checked.ast.expr(e) {
            &Expr::Int(v) => ApIndex::Const(v),
            Expr::Name(_) => match checked.name_res.get(&e) {
                Some(NameRes::Local(l)) => match &self.bindings[l.0 as usize] {
                    Binding::Slot(v) => ApIndex::Var(*v),
                    _ => ApIndex::Opaque(self.aps.fresh_opaque()),
                },
                Some(NameRes::Global(g)) => ApIndex::Global(*g),
                Some(NameRes::Const(ConstVal::Int(v))) => ApIndex::Const(*v),
                _ => ApIndex::Opaque(self.aps.fresh_opaque()),
            },
            &Expr::Binary { op, lhs, rhs } if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) => {
                let l = self.canonical_index(lhs);
                let r = self.canonical_index(rhs);
                ApIndex::Bin(op, Box::new(l), Box::new(r))
            }
            _ => ApIndex::Opaque(self.aps.fresh_opaque()),
        }
    }

    fn load_place_into(&mut self, p: &LPlace, dst: Reg) {
        match &p.kind {
            LPlaceKind::Slot(addr) => self.emit(Instr::LoadSlot {
                dst,
                addr: addr.clone(),
            }),
            LPlaceKind::Mem(addr) => {
                let ap = self.aps.intern(p.ap.clone());
                self.emit(Instr::LoadMem {
                    dst,
                    addr: addr.clone(),
                    ap,
                    hidden: false,
                });
            }
            LPlaceKind::Ind(loc) => self.emit(Instr::LoadInd { dst, loc: *loc }),
        }
    }

    fn store_place(&mut self, p: &LPlace, src: Operand) {
        match &p.kind {
            LPlaceKind::Slot(addr) => self.emit(Instr::StoreSlot {
                addr: addr.clone(),
                src,
            }),
            LPlaceKind::Mem(addr) => {
                let ap = self.aps.intern(p.ap.clone());
                self.emit(Instr::StoreMem {
                    addr: addr.clone(),
                    src,
                    ap,
                });
            }
            LPlaceKind::Ind(loc) => self.emit(Instr::StoreInd { loc: *loc, src }),
        }
    }

    // ---- expressions ---------------------------------------------------------

    /// Lowers an expression for its value.
    fn lower_expr(&mut self, e: ExprId) -> Operand {
        self.lower_expr_with_ap(e).0
    }

    /// Lowers an expression for its value and returns the access path that
    /// describes where the value came from (a temp root if it is not a
    /// designator).
    fn lower_expr_with_ap(&mut self, e: ExprId) -> (Operand, AccessPath) {
        let checked = Arc::clone(&self.checked);
        let ety = self.ty(e);
        let temp_ap = |lw: &mut Self| AccessPath {
            root: ApRoot::Temp(lw.aps.fresh_temp()),
            root_ty: ety,
            steps: vec![],
        };
        match checked.ast.expr(e) {
            &Expr::Int(v) => (Operand::ImmInt(v), temp_ap(self)),
            &Expr::Bool(b) => (Operand::ImmBool(b), temp_ap(self)),
            &Expr::Char(c) => (Operand::ImmChar(c), temp_ap(self)),
            Expr::Nil => (Operand::ImmNil, temp_ap(self)),
            Expr::Text(t) => {
                let id = self.text_id(t);
                let r = self.reg();
                self.emit(Instr::ConstText { dst: r, text: id });
                (r.into(), temp_ap(self))
            }
            Expr::Name(_) | Expr::Qualify { .. } | Expr::Deref(_) | Expr::Index { .. } => {
                // Designator (or constant name).
                if let Expr::Name(_) = checked.ast.expr(e) {
                    if let Some(NameRes::Const(c)) = checked.name_res.get(&e) {
                        return (self.lower_const(c), temp_ap(self));
                    }
                }
                let place = self.lower_place(e);
                let r = self.reg();
                self.load_place_into(&place, r);
                (r.into(), place.ap)
            }
            Expr::Call { .. } => {
                let op = self.lower_call(e, true).unwrap_or(Operand::ImmInt(0));
                (op, temp_ap(self))
            }
            &Expr::Unary { op, expr } => {
                let s = self.lower_expr(expr);
                let r = self.reg();
                self.emit(Instr::Un { dst: r, op, src: s });
                (r.into(), temp_ap(self))
            }
            &Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    let r = self.reg();
                    let rhs_bb = self.new_block();
                    let short_bb = self.new_block();
                    let join = self.new_block();
                    let l = self.lower_expr(lhs);
                    let (then_bb, else_bb) = if op == BinOp::And {
                        (rhs_bb, short_bb)
                    } else {
                        (short_bb, rhs_bb)
                    };
                    self.terminate(Terminator::Branch {
                        cond: l,
                        then_bb,
                        else_bb,
                    });
                    self.cur = rhs_bb;
                    let rv = self.lower_expr(rhs);
                    self.emit(Instr::Copy { dst: r, src: rv });
                    self.terminate(Terminator::Jump(join));
                    self.cur = short_bb;
                    self.emit(Instr::Copy {
                        dst: r,
                        src: Operand::ImmBool(op == BinOp::Or),
                    });
                    self.terminate(Terminator::Jump(join));
                    self.cur = join;
                    (r.into(), temp_ap(self))
                }
                BinOp::Concat => {
                    let l = self.lower_expr(lhs);
                    let rv = self.lower_expr(rhs);
                    let r = self.reg();
                    self.emit(Instr::Intrinsic {
                        dst: Some(r),
                        op: IntrinsicOp::TextConcat,
                        args: vec![l, rv],
                    });
                    (r.into(), temp_ap(self))
                }
                _ => {
                    let l = self.lower_expr(lhs);
                    let rv = self.lower_expr(rhs);
                    let r = self.reg();
                    self.emit(Instr::Bin {
                        dst: r,
                        op,
                        lhs: l,
                        rhs: rv,
                    });
                    (r.into(), temp_ap(self))
                }
            },
        }
    }

    fn lower_const(&mut self, c: &ConstVal) -> Operand {
        match c {
            ConstVal::Int(v) => Operand::ImmInt(*v),
            ConstVal::Bool(b) => Operand::ImmBool(*b),
            ConstVal::Char(ch) => Operand::ImmChar(*ch),
            ConstVal::Text(t) => {
                let id = self.text_id(t);
                let r = self.reg();
                self.emit(Instr::ConstText { dst: r, text: id });
                r.into()
            }
        }
    }

    // ---- calls -------------------------------------------------------------

    /// Lowers a call; returns the result operand when `want_value`.
    fn lower_call(&mut self, e: ExprId, want_value: bool) -> Option<Operand> {
        let checked = Arc::clone(&self.checked);
        let Expr::Call { callee: _, args } = checked.ast.expr(e) else {
            unreachable!("lower_call on non-call");
        };
        match checked.call_res.get(&e) {
            Some(&CallRes::Proc(pid)) => {
                let callee = checked.proc(pid);
                let mut ops = Vec::with_capacity(args.len());
                let mut addr_aps = Vec::new();
                let mut addr_slots = Vec::new();
                for (i, &a) in args.iter().enumerate() {
                    let pinfo = &callee.locals[i];
                    let mode = match pinfo.kind {
                        VarKind::Param(m) => m,
                        _ => ParamMode::Value,
                    };
                    let pty = pinfo.ty;
                    match mode {
                        ParamMode::Value => {
                            let aty = self.ty(a);
                            let op = self.lower_expr(a);
                            self.record_merge(pty, aty);
                            ops.push(op);
                        }
                        ParamMode::Var => {
                            let op = self.lower_addr_arg(a, &mut addr_aps, &mut addr_slots);
                            ops.push(op);
                        }
                    }
                }
                let dst = if callee.ret.is_some() && want_value {
                    Some(self.reg())
                } else {
                    None
                };
                self.emit(Instr::Call {
                    dst,
                    func: FuncId(pid.0),
                    args: ops,
                    addr_aps,
                    addr_slots,
                });
                dst.map(Operand::Reg)
            }
            Some(CallRes::Method {
                recv,
                name,
                recv_ty,
            }) => {
                let (recv, recv_ty) = (*recv, *recv_ty);
                let (m, _) = checked
                    .types
                    .resolve_method(recv_ty, name)
                    .expect("checker verified method");
                let m_params = &m.params;
                let m_ret = m.ret;
                let recv_op = self.lower_expr(recv);
                let mut ops = Vec::with_capacity(args.len() + 1);
                ops.push(recv_op);
                let mut addr_aps = Vec::new();
                let mut addr_slots = Vec::new();
                for (&a, (mode, pty)) in args.iter().zip(m_params.iter()) {
                    match mode {
                        ParamMode::Value => {
                            let aty = self.ty(a);
                            let op = self.lower_expr(a);
                            self.record_merge(*pty, aty);
                            ops.push(op);
                        }
                        ParamMode::Var => {
                            let op = self.lower_addr_arg(a, &mut addr_aps, &mut addr_slots);
                            ops.push(op);
                        }
                    }
                }
                // Receiver binding merges: an object of dynamic type `t`
                // flows into the self formal of the implementation bound at
                // `t` — merge each impl's self type with the subtype it is
                // bound at (not with the static receiver type, which would
                // needlessly collapse the whole hierarchy).
                for t in checked.types.subtypes(recv_ty) {
                    if let Some(&pid) = checked.method_impls.get(&(t, name.clone())) {
                        let self_ty = checked.proc(pid).locals[0].ty;
                        self.record_merge(self_ty, t);
                    }
                }
                let dst = if m_ret.is_some() && want_value {
                    Some(self.reg())
                } else {
                    None
                };
                self.emit(Instr::CallMethod {
                    dst,
                    method: name.clone(),
                    recv_ty,
                    args: ops,
                    addr_aps,
                    addr_slots,
                });
                dst.map(Operand::Reg)
            }
            Some(&CallRes::Builtin(b)) => self.lower_builtin(e, b, args, want_value),
            None => unreachable!("checker resolved every call"),
        }
    }

    /// Lowers a VAR actual: takes the address of the designator.
    fn lower_addr_arg(
        &mut self,
        a: ExprId,
        addr_aps: &mut Vec<ApId>,
        addr_slots: &mut Vec<SlotBase>,
    ) -> Operand {
        let place = self.lower_place(a);
        match &place.kind {
            LPlaceKind::Slot(addr) => {
                if let SlotBase::Local(v) = addr.base {
                    self.make_stack(v);
                }
                addr_slots.push(addr.base);
                let r = self.reg();
                self.emit(Instr::TakeAddrSlot {
                    dst: r,
                    addr: addr.clone(),
                });
                r.into()
            }
            LPlaceKind::Mem(addr) => {
                self.record_address_taken(&place.ap);
                let ap = self.aps.intern(place.ap.clone());
                addr_aps.push(ap);
                let r = self.reg();
                self.emit(Instr::TakeAddrMem {
                    dst: r,
                    addr: addr.clone(),
                    ap,
                });
                r.into()
            }
            LPlaceKind::Ind(loc) => *loc, // pass an incoming VAR param along
        }
    }

    fn lower_builtin(
        &mut self,
        e: ExprId,
        b: Builtin,
        args: &[ExprId],
        want_value: bool,
    ) -> Option<Operand> {
        let span = self.checked.ast.expr_span(e);
        match b {
            Builtin::New => {
                let ty = self.ty(args[0]);
                if self.allocated.insert(ty) {
                    self.allocated_log.push(ty);
                }
                let r = self.reg();
                if let TypeKind::Array { range: None, .. } = self.checked.types.kind(ty) {
                    let len = self.lower_expr(args[1]);
                    self.emit(Instr::NewArray { dst: r, ty, len });
                } else {
                    self.emit(Instr::New { dst: r, ty });
                }
                Some(r.into())
            }
            Builtin::Number => {
                let aty = self.ty(args[0]);
                let checked = Arc::clone(&self.checked);
                match checked.types.kind(aty) {
                    TypeKind::Array { range: None, .. } => {
                        let (op, bap) = self.lower_expr_with_ap(args[0]);
                        let mut ap = bap;
                        ap.steps.push(ApStep::DopeLen { base_ty: aty });
                        let ap = self.aps.intern(ap);
                        let r = self.reg();
                        // NUMBER is an explicit dope read, visible to RLE.
                        self.emit(Instr::LoadMem {
                            dst: r,
                            addr: MemAddr {
                                base: op,
                                offset: 0,
                                indices: vec![],
                            },
                            ap,
                            hidden: false,
                        });
                        Some(r.into())
                    }
                    &TypeKind::Array {
                        range: Some((lo, hi)),
                        ..
                    } => Some(Operand::ImmInt(hi - lo + 1)),
                    _ => {
                        self.error(span, "NUMBER of a non-array");
                        Some(Operand::ImmInt(0))
                    }
                }
            }
            Builtin::IsType | Builtin::Narrow => {
                let src = self.lower_expr(args[0]);
                let ty = self.ty(args[1]);
                let r = self.reg();
                if b == Builtin::IsType {
                    self.emit(Instr::TypeTest { dst: r, src, ty });
                } else {
                    self.emit(Instr::NarrowTo { dst: r, src, ty });
                }
                Some(r.into())
            }
            _ => {
                let op = match b {
                    Builtin::Ord => IntrinsicOp::Ord,
                    Builtin::Chr => IntrinsicOp::Chr,
                    Builtin::Abs => IntrinsicOp::Abs,
                    Builtin::Min => IntrinsicOp::Min,
                    Builtin::Max => IntrinsicOp::Max,
                    Builtin::TextLen => IntrinsicOp::TextLen,
                    Builtin::TextChar => IntrinsicOp::TextChar,
                    Builtin::IntToText => IntrinsicOp::IntToText,
                    Builtin::CharToText => IntrinsicOp::CharToText,
                    Builtin::Print => IntrinsicOp::Print,
                    Builtin::PrintInt => IntrinsicOp::PrintInt,
                    _ => unreachable!(),
                };
                let ops: Vec<Operand> = args.iter().map(|&a| self.lower_expr(a)).collect();
                let needs_dst =
                    want_value && !matches!(op, IntrinsicOp::Print | IntrinsicOp::PrintInt);
                let dst = if needs_dst { Some(self.reg()) } else { None };
                self.emit(Instr::Intrinsic { dst, op, args: ops });
                dst.map(Operand::Reg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;

    fn lower_src(src: &str) -> Program {
        let checked = mini_m3::compile(src).expect("compiles");
        lower(checked).expect("lowers")
    }

    fn count_instrs(p: &Program, pred: impl Fn(&Instr) -> bool) -> usize {
        p.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn lowers_simple_module() {
        let p = lower_src("MODULE M; VAR x: INTEGER; BEGIN x := 1 + 2 END M.");
        assert_eq!(p.funcs.len(), 1);
        let main = p.func(p.main);
        assert_eq!(main.name, "<main>");
        assert!(main.instr_count() >= 2); // Bin + StoreSlot
    }

    #[test]
    fn field_load_gets_access_path() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; g: T; END;
             VAR t: T; x: INTEGER;
             BEGIN t := NEW(T); x := t.g.f; END M.",
        );
        // t.g.f = two heap loads: t.g then (t.g).f
        assert_eq!(
            count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: false, .. })),
            2
        );
        // The access paths should include one with two steps.
        let two_step = p.aps.iter().filter(|(_, ap)| ap.steps.len() == 2).count();
        assert!(two_step >= 1);
    }

    #[test]
    fn open_array_subscript_emits_hidden_dope_load() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; x: INTEGER;
             BEGIN a := NEW(A, 4); a[0] := 7; x := a[0]; END M.",
        );
        let hidden = count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: true, .. }));
        assert_eq!(hidden, 2, "one bounds check per subscript");
        let visible = count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: false, .. }));
        assert_eq!(visible, 1, "one element load");
        let stores = count_instrs(&p, |i| matches!(i, Instr::StoreMem { .. }));
        assert_eq!(stores, 1);
    }

    #[test]
    fn number_is_visible_dope_load() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; n: INTEGER;
             BEGIN a := NEW(A, 4); n := NUMBER(a); END M.",
        );
        assert_eq!(
            count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: false, .. })),
            1
        );
    }

    #[test]
    fn var_actual_records_address_taken() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Bump (VAR x: INTEGER) = BEGIN x := x + 1 END Bump;
             VAR t: T;
             BEGIN t := NEW(T); Bump(t.f); END M.",
        );
        let tt = p.types.by_name("T").unwrap();
        let f = p.symbols.lookup("f").unwrap();
        assert!(p.address_taken.fields.contains(&(tt, f)));
    }

    #[test]
    fn with_alias_records_address_taken() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T;
             BEGIN t := NEW(T); WITH w = t.f DO w := 3 END; END M.",
        );
        let tt = p.types.by_name("T").unwrap();
        let f = p.symbols.lookup("f").unwrap();
        assert!(p.address_taken.fields.contains(&(tt, f)));
    }

    #[test]
    fn assignments_record_merges() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT END; S1 = T OBJECT END; S2 = T OBJECT END; S3 = T OBJECT END;
             VAR t: T; s1: S1; s2: S2; s3: S3;
             BEGIN
               s1 := NEW(S1); s2 := NEW(S2); s3 := NEW(S3);
               t := s1;  (* merge (T, S1) *)
               t := s2;  (* merge (T, S2) *)
             END M.",
        );
        let t = p.types.by_name("T").unwrap();
        let s1 = p.types.by_name("S1").unwrap();
        let s2 = p.types.by_name("S2").unwrap();
        let s3 = p.types.by_name("S3").unwrap();
        assert!(p.merges.contains(&(t, s1)));
        assert!(p.merges.contains(&(t, s2)));
        assert!(!p.merges.iter().any(|&(a, b)| a == s3 || b == s3));
    }

    #[test]
    fn call_binding_records_merge() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT END; S = T OBJECT END;
             PROCEDURE F (x: T) = BEGIN END F;
             VAR s: S;
             BEGIN s := NEW(S); F(s); END M.",
        );
        let t = p.types.by_name("T").unwrap();
        let s = p.types.by_name("S").unwrap();
        assert!(p.merges.contains(&(t, s)));
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let p = lower_src(
            "MODULE M;
             VAR a, b: BOOLEAN; x: INTEGER;
             BEGIN IF a AND b THEN x := 1 END; END M.",
        );
        let main = p.func(p.main);
        assert!(main.blocks.len() >= 5);
    }

    #[test]
    fn while_loop_shape() {
        let p = lower_src(
            "MODULE M;
             VAR i: INTEGER;
             BEGIN i := 0; WHILE i < 10 DO i := i + 1 END; END M.",
        );
        let main = p.func(p.main);
        // entry (guard), body, exit — rotated form
        assert!(main.blocks.len() >= 3);
        // The loop back edge exists: some block jumps to a lower-numbered one.
        let mut has_back_edge = false;
        for (i, b) in main.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if (s.0 as usize) <= i {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge);
    }

    #[test]
    fn record_assignment_breaks_into_components() {
        let p = lower_src(
            "MODULE M;
             TYPE R = RECORD x, y: INTEGER; END; PR = REF R;
             VAR a, b: R; pr: PR;
             BEGIN
               pr := NEW(PR);
               a := b;
               pr^ := a;
             END M.",
        );
        // a := b: 2 slot loads + 2 slot stores; pr^ := a: 2 loads + 2 heap stores.
        assert_eq!(count_instrs(&p, |i| matches!(i, Instr::StoreMem { .. })), 2);
    }

    #[test]
    fn new_records_allocated_types() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT END; S = T OBJECT END;
             VAR t: T;
             BEGIN t := NEW(S); END M.",
        );
        let s = p.types.by_name("S").unwrap();
        let t = p.types.by_name("T").unwrap();
        assert!(p.allocated_types.contains(&s));
        assert!(!p.allocated_types.contains(&t));
    }

    #[test]
    fn method_call_lowered_with_receiver() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT v: INTEGER; METHODS get (): INTEGER := Get; END;
             PROCEDURE Get (self: T): INTEGER = BEGIN RETURN self.v END Get;
             VAR t: T; x: INTEGER;
             BEGIN t := NEW(T); x := t.get(); END M.",
        );
        assert_eq!(
            count_instrs(&p, |i| matches!(i, Instr::CallMethod { .. })),
            1
        );
        let t = p.types.by_name("T").unwrap();
        assert!(p.method_impls.contains_key(&(t, "get".to_string())));
    }

    #[test]
    fn for_loop_canonical_index_ap() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; s: INTEGER;
             BEGIN
               a := NEW(A, 10);
               FOR i := 0 TO 9 DO s := s + a[i] END;
             END M.",
        );
        // The subscript AP a[i] should be canonical (Var index).
        let has_canonical_index = p.aps.iter().any(|(_, ap)| {
            ap.steps.iter().any(|s| {
                matches!(
                    s,
                    ApStep::Index {
                        index: ApIndex::Var(_),
                        ..
                    }
                )
            }) && ap.is_canonical()
        });
        assert!(has_canonical_index);
    }

    #[test]
    fn var_param_access_is_indirect() {
        let p = lower_src(
            "MODULE M;
             PROCEDURE F (VAR x: INTEGER) = BEGIN x := x + 1 END F;
             VAR g: INTEGER;
             BEGIN F(g); END M.",
        );
        assert!(count_instrs(&p, |i| matches!(i, Instr::LoadInd { .. })) >= 1);
        assert!(count_instrs(&p, |i| matches!(i, Instr::StoreInd { .. })) >= 1);
        assert!(count_instrs(&p, |i| matches!(i, Instr::TakeAddrSlot { .. })) == 1);
    }

    #[test]
    fn heap_ref_sites_excludes_hidden() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; x: INTEGER;
             BEGIN a := NEW(A, 4); x := a[2]; END M.",
        );
        let sites = p.heap_ref_sites();
        assert_eq!(sites.len(), 1, "only the visible element load");
    }
}
