package trace

import (
	"fmt"
	"unsafe"

	"valuespec/internal/isa"
)

// Recording is a compact, immutable in-memory copy of one program's
// correct-path instruction stream, built to be replayed into many
// simulations. It keeps only what the program cannot give back: the
// dynamic source-operand values and the result of every instruction,
// packed back to back in one []int64 — NSrc words plus one more when the
// instruction writes a register, so 0 to 3 words (at most 24 bytes) per
// record. Everything else is rebuilt from the program's code on replay:
// Seq counts from 0, PC follows the NextPC chain from the first record,
// Instr, NSrc and SrcRegs come from the static instruction, Addr is
// SrcVals[0]+Imm, a branch's Taken is isa.BranchTaken of its source values
// and a jr's NextPC is SrcVals[0].
//
// A Recording is safe for concurrent replay: every Cursor is independent.
type Recording struct {
	steps []step  // replay template of each static instruction, by PC
	start int     // PC of the first record
	n     int64   // number of records
	vals  []int64 // dynamic values of every record, in stream order
}

// step is the replay template of one static instruction: the Record fields
// that do not depend on dynamic values, with NextPC set to the fall-through
// (or, for direct jumps, the target), plus how to complete the record.
type step struct {
	tmpl Record
	dst  bool // the record carries a result word after its source words
	kind stepKind
}

type stepKind uint8

const (
	stepPlain  stepKind = iota // nothing left to derive
	stepMem                    // Addr = SrcVals[0] + Imm
	stepBranch                 // Taken and NextPC from isa.BranchTaken
	stepJR                     // NextPC = SrcVals[0]
)

func newSteps(code []isa.Instruction) []step {
	steps := make([]step, len(code))
	for pc, in := range code {
		s := &steps[pc]
		s.tmpl = Record{PC: pc, Instr: in, NextPC: pc + 1}
		s.tmpl.SrcRegs, s.tmpl.NSrc = in.SrcRegs()
		s.dst = isa.WritesReg(in.Op)
		switch isa.ClassOf(in.Op) {
		case isa.ClassLoad, isa.ClassStore:
			s.kind = stepMem
		case isa.ClassBranch:
			s.kind = stepBranch
		case isa.ClassJump:
			s.tmpl.Taken = true
			if in.Op == isa.JR {
				s.kind = stepJR
			} else {
				s.tmpl.NextPC = in.Target
			}
		}
	}
	return steps
}

// NewRecording drains src, the correct-path stream of the program whose
// code is given, into a Recording. Every record is replayed as it is added
// and must come back field for field: a stream the code cannot reproduce —
// another program's, a renumbered one, one with a record missing — is an
// error rather than a recording that would replay something else.
func NewRecording(code []isa.Instruction, src Source) (*Recording, error) {
	r := &Recording{steps: newSteps(code)}
	cur := Cursor{rec: r}
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if r.n == 0 {
			r.start, cur.pc = in.PC, in.PC
		}
		if in.PC != cur.pc || in.PC < 0 || in.PC >= len(code) {
			return nil, fmt.Errorf("trace: record %d is at pc %d, want %d in [0,%d)", r.n, in.PC, cur.pc, len(code))
		}
		s := &r.steps[in.PC]
		r.vals = append(r.vals, in.SrcVals[:s.tmpl.NSrc]...)
		if s.dst {
			r.vals = append(r.vals, in.DstVal)
		}
		r.n++
		if got, _ := cur.NextRef(); *got != in {
			return nil, fmt.Errorf("trace: record %d does not replay from the program: have %+v, replay gives %+v", r.n-1, in, *got)
		}
	}
	// Drop append's spare capacity: the recording lives as long as the
	// cache holds it.
	r.vals = append([]int64(nil), r.vals...)
	return r, nil
}

// Len returns the number of records.
func (r *Recording) Len() int64 { return r.n }

// Bytes returns the recording's in-memory footprint: its value words and
// its per-instruction replay table.
func (r *Recording) Bytes() int64 {
	return int64(len(r.vals))*8 + int64(len(r.steps))*int64(unsafe.Sizeof(step{}))
}

// Cursor returns a fresh replay cursor positioned at the first record.
func (r *Recording) Cursor() *Cursor { return &Cursor{rec: r, pc: r.start} }

// Cursor replays a Recording. It rebuilds each record into a buffer of its
// own and allocates nothing per record. Not safe for concurrent use; give
// every consumer its own Cursor.
type Cursor struct {
	rec *Recording
	seq int64 // records replayed so far
	pc  int   // PC of the next record
	vi  int   // index of the next record's first value word
	buf Record
}

// NextRef rebuilds the next record into the cursor's buffer and returns it.
// The pointer stays valid only until the next call; copy the record to keep
// it.
func (c *Cursor) NextRef() (*Record, bool) {
	if c.seq >= c.rec.n {
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
	rec.SrcVals = [2]int64{}
	rec.DstVal = 0
	rec.Addr = 0
	rec.Taken = t.Taken
	rec.NextPC = t.NextPC
	vals := c.rec.vals[c.vi:]
	k := rec.NSrc
	switch k {
	case 2:
		rec.SrcVals[1] = vals[1]
		fallthrough
	case 1:
		rec.SrcVals[0] = vals[0]
	}
	if s.dst {
		rec.DstVal = vals[k]
		k++
	}
	switch s.kind {
	case stepMem:
		rec.Addr = rec.SrcVals[0] + rec.Instr.Imm
	case stepBranch:
		if isa.BranchTaken(rec.Instr.Op, rec.SrcVals[0], rec.SrcVals[1]) {
			rec.Taken = true
			rec.NextPC = rec.Instr.Target
		}
	case stepJR:
		rec.NextPC = int(rec.SrcVals[0])
	}
	c.vi += k
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
