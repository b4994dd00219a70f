package serve

import (
	"sync"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
	"bts/internal/telemetry"
)

// This file is the DAG job pipeline: a register-form program (see Op)
// compiles into a program of nodes over operands, which the scheduler
// partitions into topologically ordered stages and executes with the paper's
// operand-reuse optimizations (Section 5's scheduler-owned dataflow):
// independent nodes of a stage run concurrently, rotation fans over one
// source share a single key-switch decomposition, and pmul constants come
// from a per-session encoding cache.

// maxRegisterName bounds register names; they live in session maps and
// travel in JSON programs.
const maxRegisterName = 64

// operand is a compiled reference to one value a node reads: the result of
// an earlier node, one of the job's uploaded input ciphertexts, or a
// session register that existed before the job.
type operand struct {
	node  int    // producing node index, or -1
	input int    // job input index, or -1
	reg   string // pre-existing session register name, or ""
}

var noOperand = operand{node: -1, input: -1}

func nodeOperand(i int) operand      { return operand{node: i, input: -1} }
func inputOperand(i int) operand     { return operand{node: -1, input: i} }
func regOperand(name string) operand { return operand{node: -1, input: -1, reg: name} }

func (o operand) valid() bool { return o.node >= 0 || o.input >= 0 || o.reg != "" }

// node is one compiled primitive of a program.
type node struct {
	kind  OpKind
	a, b  operand
	by    int       // rotation amount (rot)
	vals  []float64 // plaintext vector (pmul)
	out   string    // register the result is named by: "$" commits it, "%" keeps it job-local
	opIdx int       // originating index in the request's op list, for diagnostics
}

// program is a compiled job: nodes partitioned into stages such that every
// node's operands are produced by earlier stages, so the members of one
// stage are mutually independent and may run concurrently. inputs names the
// registers bound to the uploaded ciphertexts (in upload order), outputs
// the registers returned to the client, outOps their compiled resolutions,
// and reads the pre-existing session registers the job depends on (outputs
// included when they resolve to neither an input binding nor an op result).
type program struct {
	nodes  []node
	stages [][]int

	inputs  []string
	outputs []string
	outOps  []operand
	reads   []string
}

// validRegName reports whether name is a well-formed register name: "$"
// (session register) or "%" (job-local register) followed by
// 1..maxRegisterName-1 word characters.
func validRegName(name string) bool {
	if len(name) < 2 || len(name) > maxRegisterName || (name[0] != '$' && name[0] != '%') {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if c != '_' && (c < '0' || c > '9') && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') {
			return false
		}
	}
	return true
}

// jobLocal reports whether a valid register name is job-local ("%word"):
// its value lives only inside the job that binds or writes it — never
// committed, charged to the quota, spilled, or resolved from the session —
// and returns to the ciphertext pool when the job ends.
func jobLocal(name string) bool { return name[0] == '%' }

// maxOpsPerJob bounds the program length of a single job.
const maxOpsPerJob = 64

// compileRegisters validates and lowers a register-form program. Every
// failure is a terminal CodeBadJob: the program itself is wrong and
// retrying cannot help. Rules: ops are unordered single-assignment (each op
// names a fresh Out register; the dependency graph comes from the names),
// operand names resolve input binding → op result → session register (a
// job-local name must resolve to one of the first two), and the slot-form
// fields (A/B/Bys), which only Client.Do reads, must be unused.
func compileRegisters(ops []Op, inputNames, outputs []string, maxOps int) (*program, error) {
	if len(ops) > maxOps {
		return nil, errf(CodeBadJob, "job has %d ops, limit is %d", len(ops), maxOps)
	}
	if len(ops) == 0 && len(inputNames) == 0 {
		return nil, errf(CodeBadJob, "empty DAG job: no ops and no input bindings")
	}
	p := &program{inputs: inputNames, outputs: outputs}
	inputIdx := make(map[string]int, len(inputNames))
	for i, name := range inputNames {
		if !validRegName(name) {
			return nil, errf(CodeBadJob, "input binding %d: invalid register name %q (want $word or %%word of at most %d chars)", i, name, maxRegisterName)
		}
		if _, dup := inputIdx[name]; dup {
			return nil, errf(CodeBadJob, "input binding %q repeated", name)
		}
		inputIdx[name] = i
	}
	writer := make(map[string]int, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpAdd, OpSub, OpMul, OpRotate, OpConjugate, OpRescale, OpBootstrap, OpMulPlain:
		case OpRotateHoisted:
			return nil, errf(CodeBadJob, "op %d: roth has no register form; ask for one rot per amount — same-register fans hoist automatically", i)
		default:
			return nil, errf(CodeBadJob, "op %d: unknown kind %q", i, op.Kind)
		}
		if op.A != 0 || op.B != 0 || len(op.Bys) != 0 {
			return nil, errf(CodeBadJob, "op %d: slot-form operand fields on a register-addressed op", i)
		}
		if op.By != 0 && op.Kind != OpRotate {
			return nil, errf(CodeBadJob, "op %d: rotation amount on non-rot op %q", i, op.Kind)
		}
		if !validRegName(op.Out) {
			return nil, errf(CodeBadJob, "op %d: invalid result register %q (want $word or %%word of at most %d chars)", i, op.Out, maxRegisterName)
		}
		if _, dup := writer[op.Out]; dup {
			return nil, errf(CodeBadJob, "register %q written by two ops (single assignment)", op.Out)
		}
		if _, shadow := inputIdx[op.Out]; shadow {
			return nil, errf(CodeBadJob, "register %q is both an input binding and an op result", op.Out)
		}
		writer[op.Out] = i
		if op.Kind == OpMulPlain {
			if len(op.Vals) == 0 {
				return nil, errf(CodeBadJob, "op %d: pmul without a plaintext vector", i)
			}
		} else if len(op.Vals) > 0 {
			return nil, errf(CodeBadJob, "op %d: plaintext vector on non-pmul op %q", i, op.Kind)
		}
		if op.Ra == "" {
			return nil, errf(CodeBadJob, "op %d: missing operand register ra", i)
		}
		if op.binary() != (op.Rb != "") {
			if op.binary() {
				return nil, errf(CodeBadJob, "op %d: %q needs a second operand register rb", i, op.Kind)
			}
			return nil, errf(CodeBadJob, "op %d: %q takes no second operand", i, op.Kind)
		}
	}
	seenReads := make(map[string]bool)
	resolve := func(name string, where string, i int) (operand, error) {
		if !validRegName(name) {
			return noOperand, errf(CodeBadJob, "%s %d: invalid register name %q", where, i, name)
		}
		if idx, ok := inputIdx[name]; ok {
			return inputOperand(idx), nil
		}
		if w, ok := writer[name]; ok {
			return nodeOperand(w), nil
		}
		if jobLocal(name) {
			return noOperand, errf(CodeBadJob, "%s %d: job-local register %q is neither bound nor written by the job", where, i, name)
		}
		if !seenReads[name] {
			seenReads[name] = true
			p.reads = append(p.reads, name)
		}
		return regOperand(name), nil
	}
	for i, op := range ops {
		n := node{kind: op.Kind, b: noOperand, by: op.By, vals: op.Vals, out: op.Out, opIdx: i}
		var err error
		if n.a, err = resolve(op.Ra, "op", i); err != nil {
			return nil, err
		}
		if op.binary() {
			if n.b, err = resolve(op.Rb, "op", i); err != nil {
				return nil, err
			}
		}
		p.nodes = append(p.nodes, n)
	}
	seenOuts := make(map[string]bool, len(outputs))
	for i, name := range outputs {
		if seenOuts[name] {
			return nil, errf(CodeBadJob, "output %q requested twice", name)
		}
		seenOuts[name] = true
		o, err := resolve(name, "output", i)
		if err != nil {
			return nil, err
		}
		p.outOps = append(p.outOps, o)
	}
	if err := p.buildStages(); err != nil {
		return nil, err
	}
	return p, nil
}

// buildStages partitions the nodes into longest-path-depth stages via
// Kahn's algorithm; a cycle (op order carries no meaning, so register names
// can form one) leaves nodes unprocessed and is reported as a typed
// CodeBadJob error.
func (p *program) buildStages() error {
	n := len(p.nodes)
	if n == 0 {
		return nil
	}
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i := range p.nodes {
		for _, o := range [2]operand{p.nodes[i].a, p.nodes[i].b} {
			if o.node >= 0 {
				indeg[i]++
				succ[o.node] = append(succ[o.node], i)
			}
		}
	}
	depth := make([]int, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen, maxDepth := 0, 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
		for _, s := range succ[i] {
			if d := depth[i] + 1; d > depth[s] {
				depth[s] = d
			}
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != n {
		return errf(CodeBadJob, "register dependency cycle among the job's ops")
	}
	p.stages = make([][]int, maxDepth+1)
	for i := 0; i < n; i++ {
		p.stages[depth[i]] = append(p.stages[depth[i]], i)
	}
	return nil
}

// stageHoists maps rotation nodes of one stage to their fan's shared
// decomposition; the decompositions live for the stage and are released
// when it ends.
type stageHoists struct {
	byNode map[int]*ckks.HoistedDecomposition
	hds    []*ckks.HoistedDecomposition
}

func (sh *stageHoists) release() {
	for _, hd := range sh.hds {
		hd.Release()
	}
	sh.hds = nil
}

// prepareFans detects rotation fans in a stage — two or more rot nodes
// reading the same operand — and prepares one decomposition per fan. This
// is the scheduler-level automatic hoisting the explicit "roth" op used to
// hand-roll: a fan of n rotations costs 1 Decompose + n hoisted gather-MACs
// instead of n full key-switch pipelines, and the outputs stay bit-identical
// to naive rotation (see internal/ckks/hoisting.go).
func (j *job) prepareFans(s *Server, ev *ckks.Evaluator, stage []int, resolve func(operand) *ckks.Ciphertext) *stageHoists {
	var groups map[operand][]int
	for _, idx := range stage {
		if n := &j.prog.nodes[idx]; n.kind == OpRotate {
			if groups == nil {
				groups = make(map[operand][]int)
			}
			groups[n.a] = append(groups[n.a], idx)
		}
	}
	sh := &stageHoists{}
	for o, members := range groups {
		if len(members) < 2 {
			continue
		}
		src := resolve(o)
		if src == nil {
			continue // the nodes will fail with a typed error at execution
		}
		hd := ev.DecomposeNTT(src)
		sh.hds = append(sh.hds, hd)
		if sh.byNode == nil {
			sh.byNode = make(map[int]*ckks.HoistedDecomposition)
		}
		for _, idx := range members {
			sh.byNode[idx] = hd
		}
		if s.tel != nil {
			s.tel.hoistShared.Add(1)
		}
	}
	return sh
}

// run executes the job's compiled program stage by stage on the given
// evaluator (the session's shared one, or a traced job-private copy) and
// bootstrapper. Within a stage, nodes are independent by construction and
// run concurrently — each under its own panic recovery, so a panic in one
// node fails only this job. The job's context is checked at every stage
// boundary and before every node, so cancellation and deadlines abort
// without executing downstream nodes while results already committed to
// registers stay committed — partial progress is real progress for a
// multi-request pipeline.
//
// The job first rehydrates the session's spilled registers (see
// hydrateRegisters), snapshots the pre-existing registers it reads, and
// commits its "$" input bindings; every node then commits its "$" result
// register as it completes, under the tenant's byte quota. "%" inputs are
// read in place and "%" results stay in the job. Outputs are returned as
// pooled ciphertexts: a job-local result is handed over as is, anything
// else is copied — the session keeps owning its register values.
func (j *job) run(s *Server, ev *ckks.Evaluator, bt *ckks.Bootstrapper) (outs []*ckks.Ciphertext, err error) {
	prog := j.prog
	ctx := s.ctx
	vals := make([]*ckks.Ciphertext, len(prog.nodes))
	// kept marks values whose ownership passed to a session register or to
	// the caller.
	kept := make([]bool, len(prog.nodes))
	defer func() {
		// Release every other produced value; inputs stay owned by the
		// submitter.
		for i, ct := range vals {
			if ct != nil && !kept[i] {
				ctx.PutCiphertext(ct)
			}
		}
		if err == nil {
			j.sess.noteSuccess()
		}
	}()

	if herr := s.hydrateRegisters(j.sess); herr != nil {
		return nil, herr
	}
	var snapshot map[string]*ckks.Ciphertext
	if len(prog.reads) > 0 {
		snapshot = make(map[string]*ckks.Ciphertext, len(prog.reads))
		for _, name := range prog.reads {
			ct := j.sess.getRegister(name)
			if ct == nil {
				return nil, errf(CodeBadJob, "job reads register %q, which does not exist in session %q", name, j.sess.name)
			}
			snapshot[name] = ct
		}
	}
	// Commit the uploaded session bindings before any stage runs. The
	// session takes ownership of quota-checked copies: the originals are
	// recycled by the transport once the submit returns.
	for i, name := range prog.inputs {
		if jobLocal(name) {
			continue
		}
		if qerr := s.commitRegister(j.sess, name, ctx.CopyPooled(j.inputs[i])); qerr != nil {
			return nil, qerr
		}
	}

	resolveOperand := func(o operand) *ckks.Ciphertext {
		switch {
		case o.node >= 0:
			return vals[o.node]
		case o.input >= 0:
			return j.inputs[o.input]
		default:
			return snapshot[o.reg]
		}
	}

	for _, stage := range prog.stages {
		if cerr := j.ctx.Err(); cerr != nil {
			return nil, contextError(cerr)
		}
		// A "dag.stage" span groups the stage's op spans.
		stageParent := uint64(0)
		var stageSpan telemetry.Span
		if j.tr.Active() {
			stageSpan = j.tr.Span(spanStage, j.root.ID())
			stageParent = stageSpan.ID()
		}
		hds := j.prepareFans(s, ev, stage, resolveOperand)

		runNode := func(idx int) (nerr error) {
			n := &j.prog.nodes[idx]
			// A panic before the node's primitive starts (e.g. an armed
			// ModePanic failpoint) is attributed to "(pre-op)", not the kind.
			kind := OpKind("")
			defer func() {
				if r := recover(); r != nil {
					nerr = s.jobPanicked(j, kind, r)
				}
			}()
			// The failpoint fires before the context check: an armed delay
			// makes "cancel lands between these two ops" deterministic for
			// the mid-DAG cancellation tests.
			if ferr := faultinject.Eval("serve.op.exec"); ferr != nil {
				return injectedFaultError(ferr)
			}
			if cerr := j.ctx.Err(); cerr != nil {
				return contextError(cerr)
			}
			kind = n.kind
			a := resolveOperand(n.a)
			var b *ckks.Ciphertext
			if n.b.valid() {
				b = resolveOperand(n.b)
			}
			nev := ev
			var sp telemetry.Span
			var start time.Time
			if s.tel != nil {
				start = time.Now()
			}
			if j.tr.Active() {
				// A private evaluator copy per node (sharing counters and the
				// noise floor by pointer) carries the span parent; concurrent
				// nodes mutating one evaluator's parent field would race.
				sp = j.tr.Span(opSpanNames[n.kind], stageParent)
				nev = ev.WithTrace(j.tr, sp.ID())
			}
			out, xerr := s.execNode(nev, bt, j, n, a, b, hds.byNode[idx])
			if xerr != nil {
				return xerr
			}
			if sp.Recording() {
				sp.SetLevel(out.Level)
				sp.SetMarginBits(ctx.NoiseMargin(out))
				sp.End()
			}
			if s.tel != nil {
				s.tel.observeOp(n.kind, out.Level, time.Since(start))
			}
			vals[idx] = out
			if !jobLocal(n.out) {
				if qerr := s.commitRegister(j.sess, n.out, out); qerr != nil {
					return qerr
				}
				kept[idx] = true
			}
			return nil
		}

		var stageErr error
		if len(stage) == 1 {
			stageErr = runNode(stage[0])
		} else {
			errs := make([]error, len(stage))
			var wg sync.WaitGroup
			for k, idx := range stage {
				wg.Add(1)
				go func(k, idx int) {
					defer wg.Done()
					errs[k] = runNode(idx)
				}(k, idx)
			}
			wg.Wait()
			for _, e := range errs {
				if e != nil {
					stageErr = e
					break
				}
			}
		}
		hds.release()
		if stageSpan.Recording() {
			stageSpan.End()
		}
		if stageErr != nil {
			// Downstream stages never execute; results already committed to
			// registers stay committed.
			return nil, stageErr
		}
	}

	outs = make([]*ckks.Ciphertext, 0, len(prog.outputs))
	for _, o := range prog.outOps {
		if o.node >= 0 && jobLocal(prog.nodes[o.node].out) {
			outs = append(outs, vals[o.node])
			kept[o.node] = true
			continue
		}
		outs = append(outs, ctx.CopyPooled(resolveOperand(o)))
	}
	return outs, nil
}
