package exec

import (
	"sort"
	"sync"
	"sync/atomic"

	"suifx/internal/ir"
)

// This file defines the compiled ("lowered") form of a program: a flat
// arena layout shared by both engines, a closure-free bytecode instruction
// stream, and the per-program cache that holds them. Lowering happens once
// per ir.Program; the bytecode VM (vm.go) then executes it with no
// interface dispatch or per-node type switches on the hot path.

// layout is the deterministic arena layout of a program: commons first (in
// name order), then per-procedure static locals (in Procs order, symbols in
// name order), then a fixed scratch region for value arguments. Both the
// tree-walker and the bytecode engine use the same layout, so addresses —
// and therefore DDA results and SymRange answers — are identical.
type layout struct {
	base     map[*ir.Symbol]int64
	blockOff map[string]int64
	tempBase int64
	size     int64
}

func newLayout(prog *ir.Program) *layout {
	lay := &layout{base: map[*ir.Symbol]int64{}, blockOff: map[string]int64{}}
	names := make([]string, 0, len(prog.Commons))
	for n := range prog.Commons {
		names = append(names, n)
	}
	sort.Strings(names)
	var size int64
	for _, n := range names {
		lay.blockOff[n] = size
		size += prog.Commons[n].Size
	}
	for _, p := range prog.Procs {
		for _, s := range p.SortedSyms() {
			if s.Common != "" || s.IsParam {
				continue
			}
			lay.base[s] = size
			size += s.NElems()
		}
	}
	lay.tempBase = size
	lay.size = size + tempCells
	return lay
}

// tempCells is the size of the scratch region for value arguments (fixed so
// the arena never reallocates during execution).
const tempCells = 1024

// opcode is one VM instruction kind. Operand addressing is resolved at
// compile time: *G opcodes carry absolute arena addresses, *P opcodes carry
// a parameter slot whose binding (an arena address) lives in the current
// frame. *E variants take a precomputed element offset from the eval stack.
// *I variants are the DDA-instrumented twins used only in the instrumented
// stream, so uninstrumented runs pay zero per-access overhead.
type opcode uint8

const (
	opNop opcode = iota

	// Pushes.
	opConst // push f
	opLoadG // push mem[a]
	opLoadP // push mem[param[a]]

	// Array addressing. opIdx pops an index value, bounds-checks it against
	// idx[a], and pushes (iv-lo)*stride. opIdxAdd does the same but adds
	// into the offset accumulated below it on the stack.
	opIdx
	opIdxAdd
	opLoadGE // pop off; push mem[a+off]
	opLoadPE // pop off; push mem[param[a]+off]

	// Stores.
	opStoreG  // pop v; mem[a] = v
	opStoreP  // pop v; mem[param[a]] = v
	opStoreGE // pop off, v; mem[a+off] = v
	opStorePE // pop off, v; mem[param[a]+off] = v

	// Instrumented twins (DDA stream only).
	opLoadGI
	opLoadPI
	opLoadGEI
	opLoadPEI
	opStoreGI
	opStorePI
	opStoreGEI
	opStorePEI

	// Arithmetic and logic (operate on the top of the eval stack).
	opNeg
	opNot
	opBool // normalize to 0/1 (logical result of .AND./.OR. right side)
	opAdd
	opSub
	opMul
	opDiv // a = source line for the divide-by-zero error
	opEQ
	opNE
	opLT
	opLE
	opGT
	opGE
	opAndJmp // if top == 0 jump a (keep 0), else pop
	opOrJmp  // if top != 0 replace with 1 and jump a, else pop
	opIntrin // a = intrinsic id, b = argc

	// Control flow.
	opJmp // pc = a
	opJZ  // pop c; if c == 0 pc = a

	// Loops. opLoopInit pops step, hi, lo, computes the trip count, pushes a
	// loop activation (loops[a]) and fires the enter event. opLoopHead
	// writes the index variable, then either starts an iteration (fires the
	// iter event) or pops the activation, fires exit, and jumps to b.
	// opLoopNext advances the induction state and jumps back to a (the head).
	opLoopInit
	opLoopHead
	opLoopNext

	// Calls. Argument slots are computed on the eval stack in order:
	// opArgAddrG/P push a binding address (base + optional offset popped
	// from the stack when b == 1); plain value expressions leave their value
	// (flagged by kind in callInfo). opCall binds them to callee params.
	opArgAddrG // push float64(a) + (b==1 ? pop off : 0)
	opArgAddrP // push float64(param[a]) + (b==1 ? pop off : 0)
	opCall     // a = callInfo index
	opReturn   // return from frame; from the outermost frame, halt

	opWrite // a = argc; pop argc values, Fprintln
	opErr   // fail with errs[a]

	// ------------------------------------------------------------------
	// Tiered execution (fuse.go, DESIGN.md "Tiered execution"). Everything
	// below is only ever emitted into the tiered instruction streams; the
	// baseline bytecode variants never contain these opcodes.

	// Fused superinstructions: semantics-preserving peephole combinations
	// of the pairs/triples that dominate dynamic traces (FusionCensus).
	// Ticks of the fused window are summed onto the fused instruction, so
	// virtual-time totals at loop events are unchanged, and bounds/divide
	// checks keep their source-line attribution through the idx table.
	opLGIdx    // opLoadG+opIdx: a=var addr, b=idx id; push offset
	opLPIdx    // opLoadP+opIdx: a=param slot, b=idx id
	opLGIdxAdd // opLoadG+opIdxAdd
	opLPIdxAdd // opLoadP+opIdxAdd
	// Full 1-D element access in one dispatch: a=index var addr, b=idx id;
	// idx[b].base holds the array base folded with -lo*stride (global) or
	// the -lo*stride fold alone with idx[b].pslot = array param slot.
	opLGIdxLoadGE
	opLGIdxLoadPE
	opLGIdxStoreGE
	opLGIdxStorePE
	// Final-dimension access: a=array base (or param slot), b=idx id; the
	// accumulated offset stays on the stack (multi-dim arrays).
	opIdxAddLoadGE
	opIdxAddLoadPE
	opIdxAddStoreGE
	opIdxAddStorePE
	opConstAddStoreG // opConst+opAdd+opStoreG: mem[a] = pop + f
	// Compare-and-branch: pops two operands, jumps to a when the
	// comparison is FALSE (the opJZ half of the fused pair).
	opJEQ
	opJNE
	opJLT
	opJLE
	opJGT
	opJGE
	opLLAdd // opLoadG+opLoadG+arith: push mem[a] OP mem[b]
	opLLSub
	opLLMul
	opLCAdd // opLoadG+opConst+arith: push mem[a] OP f
	opLCSub
	opLCMul

	// Instrumented twins of the fused forms (DDA streams). The window is
	// only fused when every instruction maps to the same source statement,
	// so the per-pc Skip decision applies to the whole fused access.
	opLGIdxI
	opLPIdxI
	opLGIdxAddI
	opLPIdxAddI
	opLGIdxLoadGEI
	opLGIdxLoadPEI
	opLGIdxStoreGEI
	opLGIdxStorePEI
	opIdxAddLoadGEI
	opIdxAddLoadPEI
	opIdxAddStoreGEI
	opIdxAddStorePEI
	opConstAddStoreGI
	opLLAddI
	opLLSubI
	opLLMulI
	opLCAddI
	opLCSubI
	opLCMulI

	// Specialized (checkless) 1-D accesses, emitted only into a loop's
	// alternate body: the preflight range check at arm time (vm.go
	// specPreflight) proves every index in bounds, so the per-access check
	// is dropped and the loop-invariant part of the address computation
	// (base - lo*stride) is folded into idx[b].base. a=index var addr,
	// b=idx id.
	opSpecLoadG
	opSpecStoreG
	opSpecLoadP // array bound to a param slot: idx[b].pslot
	opSpecStoreP

	// Second-order fusions: the fusion pass runs to fixpoint, so pairs
	// whose head is itself a round-one fused op collapse further. These are
	// the chains the census shows dominating real traces once the
	// first-round set is applied (param-indexed element accesses, element
	// load feeding arithmetic, load-scale-accumulate).
	opLPIdxLoadGE  // opLPIdx+opLoadGE: a=index param slot, b=idx id (base folded)
	opLPIdxLoadPE  // element via idx[b].pslot
	opLPIdxStoreGE // opLPIdx+opStoreGE
	opLPIdxStorePE
	opLoadGEAdd // opLoadGE+arith: ..., x, off -> ..., x OP mem[a+off]
	opLoadGESub
	opLoadGEMul
	opLCMulAdd    // opLCMul+opAdd: stack top += mem[a]*f
	opLPJGT       // opLoadP+opJGT: pop x, fall through iff x > mem[params[b]]
	opLPJLE       // opLoadP+opJLE: pop x, fall through iff x <= mem[params[b]]
	opLCIdx       // opLCAdd+opIdx: push checked offset of index mem[a]+f in idx[b]
	opLCAddStoreG // opLCAdd+opStoreG: mem[b] = mem[a] + f, no stack traffic

	// Instrumented twins of the second-order fusions (contiguous block —
	// isAccessOp depends on the range).
	opLPIdxLoadGEI
	opLPIdxLoadPEI
	opLPIdxStoreGEI
	opLPIdxStorePEI
	opLoadGEAddI
	opLoadGESubI
	opLoadGEMulI
	opLCMulAddI
	opLPJGTI
	opLPJLEI
	opLCIdxI
	opLCAddStoreGI

	// Fused loop back-edge: opLoopNext whose target is an opLoopHead. One
	// dispatch advances the induction state and replays the head (index
	// write-back, trip test, iteration event, alt-body dispatch). a=head pc
	// (body entry is a+1), b=the head's exit target.
	opLoopNextHead

	// ------------------------------------------------------------------
	// Register-form opcodes (register.go, DESIGN.md "Register-form tier").
	// Emitted only into the register-lowered alt-body region appended at
	// code.regStart of register-tier streams, and executed only by the
	// vm's dedicated register runner (runRegBody). Operands name virtual
	// registers — eval-stack slots allocated at compile time, which is
	// possible because the stack depth at every point of a straight-line
	// alt body is statically known — instead of implicit stack positions.
	// Register operands are packed into one int32 field 10 bits each
	// (rPack/rsh below); the other fields keep the source instruction's
	// addresses, table ids, and immediates.

	opRConst // reg[b] = f
	opRLoadG // reg[b] = mem[a]
	opRLoadP // reg[b] = mem[params[a]]
	opRStoreG
	opRStoreP
	opRNeg  // reg[b] = -reg[b]
	opRNot  // reg[b] = !reg[b]
	opRBool // reg[b] = bool(reg[b])
	// Three-register arithmetic/compare: b = dst | s1<<10 | s2<<20.
	opRAdd
	opRSub
	opRMul
	opRDiv // a = source line
	opREQ
	opRNE
	opRLT
	opRLE
	opRGT
	opRGE
	opRIntrin // a = intrinsic id, b = argc | base<<10; result in reg[base]
	// Jumps: a = target pc; register operands in b.
	opRJmp
	opRJZ     // if reg[b] == 0 jump
	opRAndJmp // if reg[b] == 0 jump (keep 0)
	opROrJmp  // if reg[b] != 0 { reg[b] = 1; jump }
	opRJEQ    // b = s1 | s2<<10; jump when the comparison is FALSE
	opRJNE
	opRJLT
	opRJLE
	opRJGT
	opRJGE
	// Checked element addressing (non-specialized refs inside alt bodies).
	opRIdx    // a = idx id, b = slot (in place: index value -> offset)
	opRIdxAdd // a = idx id, b = acc | iv<<10
	opRLoadGE // a = array base, b = slot (in place: offset -> value)
	opRLoadPE
	opRStoreGE // a = base, b = val | off<<10
	opRStorePE
	// Specialized (checkless) accesses: b = idx id; the index value is the
	// runner's hoisted induction register, converted once per iteration.
	opRSpecLoadG // a = dst
	opRSpecStoreG
	opRSpecLoadP
	opRSpecStoreP
	// Register twins of the fused superinstructions that appear in alt
	// bodies. Field use mirrors the stack form; the extra register operand
	// rides in b (free in the stack form) or f (full-access forms).
	opRLGIdxLoadGE // a = index var addr, b = idx id, f = float64(dst)
	opRLGIdxLoadPE
	opRLGIdxStoreGE // f = float64(src)
	opRLGIdxStorePE
	opRIdxAddLoadGE  // a = base/pslot, b = idx id, f = float64(acc|iv<<10)
	opRIdxAddLoadPE  //
	opRIdxAddStoreGE // f = float64(val|acc<<10|iv<<20)
	opRIdxAddStorePE
	opRLGIdx    // a = var addr, b = idx id, f = float64(dst)
	opRLGIdxAdd // f = float64(acc)
	opRLLAdd    // a, b = addrs, f = float64(dst)
	opRLLSub
	opRLLMul
	opRLCAdd // a = addr, b = dst, f = const
	opRLCSub
	opRLCMul
	opRLCMulAdd // reg[b] += mem[a] * f
	opRLPJGT    // a = target, b = pslot | src<<10
	opRLPJLE
	opRLCIdx          // a = addr, b = idx id | dst<<20, f = const
	opRLoadGEAdd      // a = base, b = acc | off<<10
	opRLoadGESub      //
	opRLoadGEMul      //
	opRConstAddStoreG // mem[a] = reg[b] + f
	// Register peephole products: whole-pattern superinstructions the
	// explicit operands make legal (the consumed register is provably dead
	// because the stack depth dropped below it).
	opRSpecJGTP // spec load + opRLPJGT: a = target, b = pslot, f = float64(idx id)
	opRSpecJLEP
	opRMemAxpy // load/opRLCMulAdd/store, same cell: mem[a] += mem[b] * f

	// Param-held index forms (mirror opLPIdx*: index read via params[a]).
	opRLPIdx        // a = index pslot, b = idx id, f = float64(dst)
	opRLPIdxAdd     // a = index pslot, b = idx id, f = float64(acc)
	opRLPIdxLoadGE  // a = index pslot, b = idx id, f = float64(dst)
	opRLPIdxLoadPE  // like opRLPIdxLoadGE through the array's pslot base
	opRLPIdxStoreGE // a = index pslot, b = idx id, f = float64(src)
	opRLPIdxStorePE

	// Constant-folded register binops (opRConst + opRAdd/Sub/Mul where the
	// constant slot dies): b = dst | s1<<10, f = the constant.
	opRAddC
	opRSubC
	opRMulC
	opRSpecStoreC // opRConst + opRSpecStoreG: b = idx id, f = the constant

	opRAbs // single-arg ABS intrinsic, open-coded: b = slot (in place)

	// opRLPIdx + opRLoadGE{Add,Sub,Mul}: param-held-index element access
	// folded into the accumulating binop. a = element base,
	// b = idx id | index pslot<<20, f = float64(acc).
	opRLPIdxLoadGEAdd
	opRLPIdxLoadGESub
	opRLPIdxLoadGEMul

	// opRLCMulAdd + opRSpecStoreG over the same register:
	// a = scalar addr, b = reg | idx id<<10, f = the constant.
	opRLCMulAddSpecStore

	// opRSpecJGTP/JLEP whose taken edge skips exactly one mem[x] += 1
	// (opLCAddStoreG, a == b, f == 1): the compare executes the increment
	// itself instead of branching around it. The increment's tick is
	// charged only on the taken path, so virtual time stays path-exact.
	// a = increment addr, b = pslot, f = float64(idx id | incTick<<20).
	opRSpecJGTPInc
	opRSpecJLEPInc

	opcodeCount // sentinel: number of opcodes (name table, census)
)

// Register-operand packing: up to three virtual registers in one int32,
// 10 bits each. Register indices are eval-stack depths; the lowering pass
// refuses bodies that would need a register >= rLimit.
const (
	rBits  = 10
	rMask  = 1<<rBits - 1
	rLimit = 1 << rBits
)

func rPack(r1, r2, r3 int32) int32 { return r1 | r2<<rBits | r3<<(2*rBits) }

// instr is one 24-byte instruction. tick is the amount of virtual time
// charged when the instruction executes (statement + expression-node ticks
// are folded onto instructions during lowering, preserving per-statement
// totals exactly).
type instr struct {
	op   opcode
	tick uint8
	a    int32
	b    int32
	f    float64
}

// idxData is the per-dimension metadata for opIdx/opIdxAdd. The fused
// full-access and specialized opcodes extend it with a precomputed base
// (the array base folded with -lo*stride) and, for param-bound arrays, the
// parameter slot the base resolves through.
type idxData struct {
	lo, hi, stride int64
	line           int32
	dim            int32
	name           string // array name, for the bounds error message
	base           int64  // fused/spec: array base - lo*stride (or just -lo*stride with pslot)
	pslot          int32  // fused/spec: array param slot (with base = -lo*stride)
}

// loopMeta is the static description of one lowered DO loop.
type loopMeta struct {
	loop     *ir.DoLoop
	proc     string
	line     int32
	idxParam bool  // index variable storage: parameter slot vs absolute
	idxOp    int32 // param slot or absolute address
	// Tiered streams only: altEntry is the pc of the loop's specialized
	// alternate body (-1 = none), guards the idx-table entries whose ranges
	// the arm-time preflight must prove in bounds before the checkless body
	// may run.
	altEntry int32
	guards   []int32
	// Register streams only: regEntry is the pc of the register-form
	// lowering of the alt body in the appended region at code.regStart
	// (-1 = the body could not be register-lowered; arming falls back to
	// the stack-form alt body).
	regEntry int32
}

// argKind distinguishes how a call argument slot binds.
const (
	argBind  = 0 // stack value is an arena address (by-reference binding)
	argValue = 1 // stack value is a value to spill into a scratch cell
)

type callInfo struct {
	name  string
	entry int32 // patched after all procs are lowered
	kinds []uint8
	line  int32
}

// code is a whole lowered program: one instruction stream covering every
// procedure, with side tables for array metadata, loops, and calls.
type code struct {
	lay          *layout
	ins          []instr
	stmtOf       []ir.Stmt // statement that produced each instruction (for Skip)
	idx          []idxData
	loops        []loopMeta
	calls        []callInfo
	errs         []string
	entry        int32 // pc of the main program
	maxStack     int   // eval-stack high-water mark (statically known)
	instrumented bool
	tiered       bool // superinstruction-fused stream with alt loop bodies
	// Register tier: register-form alt bodies are appended at regStart, so
	// an armed activation whose alt pc is >= regStart dispatches to the
	// register runner instead of the stack-form alt body.
	register bool
	regStart int32
}

// lowered is the per-program compilation cache plus pooled run state. It is
// stored in ir.Program.ExecCache so it is shared by every Interp over the
// same parse and garbage-collected with it.
type lowered struct {
	lay *layout

	mu sync.Mutex
	// variants[instrumented + 2*tier]: plain, DDA-instrumented, and the
	// tiered (fused + specializable) and register-form twins of each.
	variants [6]*code

	vmPool     sync.Pool // *vmScratch
	shadowPool sync.Pool // *ddaShadow
}

// loweredOf returns (building if needed) the lowered form of prog. A racy
// double-build is benign: both values are equivalent and one wins the
// Store.
func loweredOf(prog *ir.Program) *lowered {
	if v := prog.ExecCache.Load(); v != nil {
		return v.(*lowered)
	}
	low := &lowered{lay: newLayout(prog)}
	prog.ExecCache.Store(low)
	return prog.ExecCache.Load().(*lowered)
}

// InvalidateProgram drops prog's compiled-code cache so the next run
// recompiles every variant from the current IR. driver.Incremental calls
// this when an invalidation dirties the program: specialized and fused
// tiered code must not be served stale across analysis runs. In-flight
// interpreters keep executing the code they already resolved; only new
// runs see the fresh cache.
func InvalidateProgram(prog *ir.Program) {
	prog.ExecCache.Store(&lowered{lay: newLayout(prog)})
}

// tierKind selects which compiled variant of a program codeFor returns.
type tierKind int

const (
	tierPlain    tierKind = iota // baseline bytecode
	tierFused                    // superinstruction fusion + specialization
	tierRegister                 // tierFused + register-form alt bodies
)

// codeFor returns the plain or instrumented instruction stream, compiling
// it on first use. Tiered variants additionally lower specializable loop
// bodies twice (generic + alt) and run the superinstruction fusion pass;
// the register tier then lowers each alt body to register form.
func (low *lowered) codeFor(prog *ir.Program, instrumented bool, tier tierKind) *code {
	i := int(tier)*2 + 0
	if instrumented {
		i++
	}
	low.mu.Lock()
	defer low.mu.Unlock()
	if low.variants[i] == nil {
		cd := compileProgram(prog, low.lay, instrumented, tier != tierPlain)
		if tier != tierPlain {
			cd = fuseCode(cd)
		}
		if tier == tierRegister {
			regLowerCode(cd)
		}
		low.variants[i] = cd
		counters.compiledProcs.Add(int64(len(prog.Procs)))
		counters.compiledPrograms.Add(1)
	}
	return low.variants[i]
}

// Engine counters exported through suifxd's /v1/stats. The fallback*
// counters attribute every tree-walker run to its cause, so a plan that
// unexpectedly runs off the fast engine is visible instead of silent.
var counters struct {
	compiledPrograms atomic.Int64
	compiledProcs    atomic.Int64
	compiledViews    atomic.Int64
	instructions     atomic.Int64
	bytecodeRuns     atomic.Int64
	treeRuns         atomic.Int64

	parallelLoopRuns atomic.Int64
	parallelWorkers  atomic.Int64

	fallbackMode      atomic.Int64
	fallbackHooks     atomic.Int64
	fallbackAnalyzers atomic.Int64

	// Tiered engine: runs dispatched to the fused variant, instructions
	// eliminated by fusion at compile time, loop activations that armed a
	// specialized alt body, and loop iterations executed on a stripped
	// (uninstrumented) alt body while DDA sampling was off.
	tieredRuns        atomic.Int64
	fusedInstructions atomic.Int64
	specInvocations   atomic.Int64
	stripIterations   atomic.Int64

	// Register tier: runs dispatched to the register variant, alt bodies
	// successfully lowered to register form at compile time, and loop
	// iterations executed by the register runner.
	registerRuns  atomic.Int64
	regBodies     atomic.Int64
	regIterations atomic.Int64
}

// Counters is a snapshot of the execution engine's global counters.
type Counters struct {
	CompiledPrograms int64 `json:"compiled_programs"`
	CompiledProcs    int64 `json:"compiled_procs"`
	CompiledViews    int64 `json:"compiled_worker_views"`
	Instructions     int64 `json:"instructions_executed"`
	BytecodeRuns     int64 `json:"bytecode_runs"`
	TreeRuns         int64 `json:"tree_runs"`

	// Parallel engine: planned-loop invocations executed (either engine)
	// and the schedule positions dispatched for them.
	ParallelLoopRuns int64 `json:"parallel_loop_runs"`
	ParallelWorkers  int64 `json:"parallel_workers"`

	// Tree-walker fallbacks by cause: explicit tree mode, user-installed
	// hooks, unsupported analyzer attachments.
	FallbackMode      int64 `json:"fallbacks_mode"`
	FallbackHooks     int64 `json:"fallbacks_hooks"`
	FallbackAnalyzers int64 `json:"fallbacks_analyzers"`

	// Tiered engine: fused-variant runs, instructions removed by the
	// superinstruction pass, specialized-loop activations, and iterations
	// executed on a stripped alt body.
	TieredRuns        int64 `json:"tiered_runs"`
	FusedInstructions int64 `json:"fused_instructions"`
	SpecInvocations   int64 `json:"spec_invocations"`
	StripIterations   int64 `json:"strip_iterations"`

	// Register tier: register-variant runs, alt bodies lowered to register
	// form at compile time, and iterations executed by the register runner.
	RegisterRuns  int64 `json:"register_runs"`
	RegBodies     int64 `json:"register_bodies"`
	RegIterations int64 `json:"register_iterations"`
}

// ReadCounters returns the current engine counters.
func ReadCounters() Counters {
	return Counters{
		CompiledPrograms:  counters.compiledPrograms.Load(),
		CompiledProcs:     counters.compiledProcs.Load(),
		CompiledViews:     counters.compiledViews.Load(),
		Instructions:      counters.instructions.Load(),
		BytecodeRuns:      counters.bytecodeRuns.Load(),
		TreeRuns:          counters.treeRuns.Load(),
		ParallelLoopRuns:  counters.parallelLoopRuns.Load(),
		ParallelWorkers:   counters.parallelWorkers.Load(),
		FallbackMode:      counters.fallbackMode.Load(),
		FallbackHooks:     counters.fallbackHooks.Load(),
		FallbackAnalyzers: counters.fallbackAnalyzers.Load(),
		TieredRuns:        counters.tieredRuns.Load(),
		FusedInstructions: counters.fusedInstructions.Load(),
		SpecInvocations:   counters.specInvocations.Load(),
		StripIterations:   counters.stripIterations.Load(),
		RegisterRuns:      counters.registerRuns.Load(),
		RegBodies:         counters.regBodies.Load(),
		RegIterations:     counters.regIterations.Load(),
	}
}
