// Package emu implements the functional emulator for the valuespec ISA.
//
// The emulator executes a program architecturally (no timing) and emits one
// trace.Record per dynamic instruction. It is the substitute for running
// SPEC binaries under SimpleScalar's functional front end.
package emu

import (
	"errors"
	"fmt"

	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// ErrHalted is returned by Step after the program has executed HALT or
// exhausted its instruction budget.
var ErrHalted = errors.New("emu: machine halted")

// Machine is the architectural state of one running program.
type Machine struct {
	prog   *program.Program
	regs   [isa.NumRegs]int64
	mem    memImage
	pc     int
	seq    int64
	budget int64 // remaining instructions, <0 means unlimited
	halted bool
	err    error // the execution fault that halted the machine, if any
}

// Option configures a Machine.
type Option func(*Machine)

// WithBudget limits execution to at most n dynamic instructions; the machine
// halts cleanly when the budget is exhausted. A non-positive n means
// unlimited.
func WithBudget(n int64) Option {
	return func(m *Machine) {
		if n > 0 {
			m.budget = n
		}
	}
}

// New creates a machine ready to run p from its entry point, with data
// memory initialized from the program image.
func New(p *program.Program, opts ...Option) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: p, pc: p.Entry, budget: -1}
	for addr, val := range p.Data {
		m.mem.write(addr, val)
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Halted reports whether the machine has stopped.
func (m *Machine) Halted() bool { return m.halted }

// Err returns the execution fault that stopped the machine, or nil while it
// runs and after a clean halt (HALT or an exhausted budget). A stream read
// through Next ends at a fault just as it ends at a halt; check Err after
// draining it to tell the two apart.
func (m *Machine) Err() error { return m.err }

// PC returns the current program counter (static instruction index).
func (m *Machine) PC() int { return m.pc }

// Executed returns the number of dynamic instructions executed so far.
func (m *Machine) Executed() int64 { return m.seq }

// Reg returns the architectural value of register r.
func (m *Machine) Reg(r isa.Reg) int64 { return m.regs[r] }

// Mem returns the architectural value of data-memory word addr.
func (m *Machine) Mem(addr int64) int64 { return m.mem.read(addr) }

// Step executes one dynamic instruction and returns its record.
// It returns ErrHalted once the program has stopped.
func (m *Machine) Step() (trace.Record, error) {
	if m.halted {
		return trace.Record{}, ErrHalted
	}
	if m.pc < 0 || m.pc >= len(m.prog.Code) {
		m.halted = true
		m.err = fmt.Errorf("emu: pc %d out of range [0,%d) after %d instructions", m.pc, len(m.prog.Code), m.seq)
		return trace.Record{}, m.err
	}
	in := m.prog.Code[m.pc]
	rec := trace.Record{Seq: m.seq, PC: m.pc, Instr: in, NextPC: m.pc + 1}
	srcs, n := in.SrcRegs()
	rec.SrcRegs, rec.NSrc = srcs, n
	for i := 0; i < n; i++ {
		rec.SrcVals[i] = m.regs[srcs[i]]
	}

	switch isa.ClassOf(in.Op) {
	case isa.ClassALU, isa.ClassComplex:
		rec.DstVal = isa.Eval(in.Op, rec.SrcVals[0], rec.SrcVals[1], in.Imm)
		m.setReg(in.Dst, rec.DstVal)

	case isa.ClassLoad:
		rec.Addr = rec.SrcVals[0] + in.Imm
		rec.DstVal = m.mem.read(rec.Addr)
		m.setReg(in.Dst, rec.DstVal)

	case isa.ClassStore:
		rec.Addr = rec.SrcVals[0] + in.Imm
		m.mem.write(rec.Addr, rec.SrcVals[1]) // Src2 value is SrcVals[1]

	case isa.ClassBranch:
		rec.Taken = isa.BranchTaken(in.Op, rec.SrcVals[0], rec.SrcVals[1])
		if rec.Taken {
			rec.NextPC = in.Target
		}

	case isa.ClassJump:
		rec.Taken = true
		switch in.Op {
		case isa.JMP:
			rec.NextPC = in.Target
		case isa.JAL:
			rec.DstVal = int64(m.pc + 1)
			m.setReg(in.Dst, rec.DstVal)
			rec.NextPC = in.Target
		case isa.JR:
			rec.NextPC = int(rec.SrcVals[0])
		}

	case isa.ClassNop:
		if in.Op == isa.HALT {
			m.halted = true
		}
	}

	m.pc = rec.NextPC
	m.seq++
	if m.budget > 0 && m.seq >= m.budget {
		m.halted = true
	}
	return rec, nil
}

func (m *Machine) setReg(r isa.Reg, v int64) {
	if r != isa.R0 {
		m.regs[r] = v
	}
}

// Next implements trace.Source: it steps the machine, reporting false at
// halt or on an execution fault (which Err then returns).
func (m *Machine) Next() (trace.Record, bool) {
	if m.halted {
		return trace.Record{}, false
	}
	rec, err := m.Step()
	if err != nil {
		return trace.Record{}, false
	}
	return rec, true
}

// Run executes until halt or until limit instructions have run (limit <= 0
// means no limit beyond the machine's budget) and returns the number of
// instructions executed by this call.
func (m *Machine) Run(limit int64) (int64, error) {
	var n int64
	for !m.halted {
		if limit > 0 && n >= limit {
			break
		}
		if _, err := m.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// pageBits sizes memory pages at 4096 words (32 KiB); workloads touch a few
// hundred KiB so the page map stays tiny while avoiding per-word map lookups.
const pageBits = 12

type page [1 << pageBits]int64

// memImage is a sparse word-addressed memory. Reads of untouched words
// return zero, matching a zero-initialized address space.
type memImage struct {
	pages map[int64]*page
	// last-page cache: emulated access streams are highly local.
	lastIdx  int64
	lastPage *page
}

func (mi *memImage) lookup(addr int64, create bool) *page {
	idx := addr >> pageBits
	if mi.lastPage != nil && mi.lastIdx == idx {
		return mi.lastPage
	}
	p := mi.pages[idx]
	if p == nil {
		if !create {
			return nil
		}
		if mi.pages == nil {
			mi.pages = make(map[int64]*page)
		}
		p = new(page)
		mi.pages[idx] = p
	}
	mi.lastIdx, mi.lastPage = idx, p
	return p
}

func (mi *memImage) read(addr int64) int64 {
	p := mi.lookup(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(1<<pageBits-1)]
}

func (mi *memImage) write(addr, val int64) {
	mi.lookup(addr, true)[addr&(1<<pageBits-1)] = val
}
