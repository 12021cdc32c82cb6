package trace

import (
	"fmt"
	"unsafe"

	"valuespec/internal/isa"
)

// Recording is a compact, immutable in-memory copy of one program's
// correct-path instruction stream, built to be replayed into many
// simulations. Like an EIO trace it keeps only the program's external
// inputs — here, the value every load reads, one word per load in stream
// order — plus the register file the stream starts from. Everything else is
// re-executed from the program's code on replay: Seq counts up from the
// first record's, PC follows the NextPC chain from the first record, Instr,
// NSrc and SrcRegs come from the static instruction, SrcVals are read from
// the cursor's register file, an ALU or complex result is isa.Eval of them,
// a jal's result is pc+1, Addr is SrcVals[0]+Imm, a branch's Taken is
// isa.BranchTaken of its source values and a jr's NextPC is SrcVals[0].
// Each result is written back to the register file, never to r0.
//
// A Recording is safe for concurrent replay: every Cursor is independent.
type Recording struct {
	steps []step             // replay template of each static instruction, by PC
	start int                // PC of the first record
	seq0  int64              // Seq of the first record
	end   int64              // Seq one past the last record
	regs  [isa.NumRegs]int64 // register file before the first record
	loads []int64            // value of every load, in stream order
}

// step is the replay template of one static instruction: the Record fields
// that do not depend on dynamic values, with NextPC set to the fall-through
// (or, for direct jumps, the target) and DstVal to the result of an ldi or
// a jal, which are constants, plus how to complete the record.
type step struct {
	tmpl Record
	dst  isa.Reg // register the result is written to; r0 when there is none
	kind stepKind
}

type stepKind uint8

const (
	stepPlain  stepKind = iota // nothing left to derive
	stepEval                   // DstVal = isa.Eval of the source values
	stepLoad                   // Addr = SrcVals[0] + Imm, DstVal = the next load word
	stepStore                  // Addr = SrcVals[0] + Imm
	stepBranch                 // Taken and NextPC from isa.BranchTaken
	stepJR                     // NextPC = SrcVals[0]
)

func newSteps(code []isa.Instruction) ([]step, error) {
	steps := make([]step, len(code))
	for pc, in := range code {
		if in.Dst >= isa.NumRegs || in.Src1 >= isa.NumRegs || in.Src2 >= isa.NumRegs {
			return nil, fmt.Errorf("trace: instruction %d (%s): register out of range", pc, in)
		}
		s := &steps[pc]
		s.tmpl = Record{PC: pc, Instr: in, NextPC: pc + 1}
		s.tmpl.SrcRegs, s.tmpl.NSrc = in.SrcRegs()
		if isa.WritesReg(in.Op) {
			s.dst = in.Dst
		}
		switch isa.ClassOf(in.Op) {
		case isa.ClassALU, isa.ClassComplex:
			if in.Op == isa.LDI {
				s.tmpl.DstVal = isa.Eval(in.Op, 0, 0, in.Imm) // a constant
			} else {
				s.kind = stepEval
			}
		case isa.ClassLoad:
			s.kind = stepLoad
		case isa.ClassStore:
			s.kind = stepStore
		case isa.ClassBranch:
			s.kind = stepBranch
		case isa.ClassJump:
			s.tmpl.Taken = true
			switch in.Op {
			case isa.JR:
				s.kind = stepJR
			case isa.JAL:
				s.tmpl.DstVal = int64(pc + 1)
				fallthrough
			default:
				s.tmpl.NextPC = in.Target
			}
		}
	}
	return steps, nil
}

// NewRecording drains src, the correct-path stream of the program whose
// code is given, into a Recording. A register's initial value is taken from
// its first read before any write. Every record is replayed as it is added
// and must come back field for field: a stream the code cannot reproduce —
// another program's, a renumbered one, one with a record missing, one whose
// registers change with no instruction writing them — is an error rather
// than a recording that would replay something else.
func NewRecording(code []isa.Instruction, src Source) (*Recording, error) {
	steps, err := newSteps(code)
	if err != nil {
		return nil, err
	}
	r := &Recording{steps: steps}
	cur := Cursor{rec: r}
	known := [isa.NumRegs]bool{isa.R0: true} // r0 reads 0 from the start
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if r.Len() == 0 {
			r.start, cur.pc = in.PC, in.PC
			r.seq0, r.end, cur.seq = in.Seq, in.Seq, in.Seq
		}
		if in.PC != cur.pc || in.PC < 0 || in.PC >= len(code) {
			return nil, fmt.Errorf("trace: record %d is at pc %d, want %d in [0,%d)", r.Len(), in.PC, cur.pc, len(code))
		}
		s := &r.steps[in.PC]
		for i, reg := range s.tmpl.SrcRegs[:s.tmpl.NSrc] {
			if !known[reg] {
				known[reg] = true
				r.regs[reg], cur.regs[reg] = in.SrcVals[i], in.SrcVals[i]
			}
		}
		known[s.dst] = true
		if s.kind == stepLoad {
			r.loads = append(r.loads, in.DstVal)
		}
		r.end++
		if got, _ := cur.NextRef(); *got != in {
			return nil, fmt.Errorf("trace: record %d does not replay from the program: have %+v, replay gives %+v", r.Len()-1, in, *got)
		}
	}
	// Drop append's spare capacity: the recording lives as long as the
	// cache holds it.
	r.loads = append([]int64(nil), r.loads...)
	return r, nil
}

// Len returns the number of records.
func (r *Recording) Len() int64 { return r.end - r.seq0 }

// Bytes returns the recording's in-memory footprint: its load words, its
// per-instruction replay table and its initial register file.
func (r *Recording) Bytes() int64 {
	return int64(len(r.loads))*8 + int64(len(r.steps))*int64(unsafe.Sizeof(step{})) + int64(unsafe.Sizeof(r.regs))
}

// Cursor returns a fresh replay cursor positioned at the first record.
func (r *Recording) Cursor() *Cursor {
	return &Cursor{rec: r, seq: r.seq0, pc: r.start, regs: r.regs}
}

// Cursor replays a Recording by re-executing it on a register file of its
// own. It rebuilds each record into a buffer of its own and allocates
// nothing per record. Not safe for concurrent use; give every consumer its
// own Cursor.
type Cursor struct {
	rec  *Recording
	seq  int64 // Seq of the next record
	pc   int   // PC of the next record
	li   int   // index of the next load word
	regs [isa.NumRegs]int64
	buf  Record
}

// NextRef rebuilds the next record into the cursor's buffer and returns it.
// The pointer stays valid only until the next call; copy the record to keep
// it.
func (c *Cursor) NextRef() (*Record, bool) {
	if c.seq >= c.rec.end {
		return nil, false
	}
	s := &c.rec.steps[c.pc]
	t := &s.tmpl
	rec := &c.buf
	// Field by field rather than *rec = *t: every field is written either
	// way, and the stores beat a 104-byte block copy per record.
	rec.Seq = c.seq
	rec.PC = t.PC
	rec.Instr = t.Instr
	rec.NSrc = t.NSrc
	rec.SrcRegs = t.SrcRegs
	// A source slot the instruction does not use names r0, which reads 0;
	// the mask (registers are checked < 32 when the table is built) lets
	// the compiler drop the bounds checks.
	rec.SrcVals = [2]int64{c.regs[t.SrcRegs[0]&(isa.NumRegs-1)], c.regs[t.SrcRegs[1]&(isa.NumRegs-1)]}
	rec.DstVal = t.DstVal
	rec.Addr = 0
	rec.Taken = t.Taken
	rec.NextPC = t.NextPC
	switch s.kind {
	case stepEval:
		rec.DstVal = isa.Eval(rec.Instr.Op, rec.SrcVals[0], rec.SrcVals[1], rec.Instr.Imm)
	case stepLoad:
		rec.Addr = rec.SrcVals[0] + rec.Instr.Imm
		rec.DstVal = c.rec.loads[c.li]
		c.li++
	case stepStore:
		rec.Addr = rec.SrcVals[0] + rec.Instr.Imm
	case stepBranch:
		if isa.BranchTaken(rec.Instr.Op, rec.SrcVals[0], rec.SrcVals[1]) {
			rec.Taken = true
			rec.NextPC = rec.Instr.Target
		}
	case stepJR:
		rec.NextPC = int(rec.SrcVals[0])
	}
	// Instructions without a result write 0 to r0; r0 then goes back to 0.
	c.regs[s.dst&(isa.NumRegs-1)] = rec.DstVal
	c.regs[isa.R0] = 0
	c.seq++
	c.pc = rec.NextPC
	return rec, true
}

// Next implements Source.
func (c *Cursor) Next() (Record, bool) {
	rec, ok := c.NextRef()
	if !ok {
		return Record{}, false
	}
	return *rec, true
}
