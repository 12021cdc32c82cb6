package trace

import (
	"reflect"
	"strings"
	"testing"

	"valuespec/internal/isa"
)

// testInstr accumulates r2 into r1: r1 is read after it is written, r2 is
// only ever read.
var testInstr = isa.Instruction{Op: isa.ADD, Dst: 1, Src1: 1, Src2: 2}

// testRecords is the stream of a straight-line program of n testInstr,
// starting from r1 = 1 and r2 = 3.
func testRecords(n int) ([]isa.Instruction, []Record) {
	code := make([]isa.Instruction, n)
	recs := make([]Record, n)
	r1 := int64(1)
	for i := range recs {
		code[i] = testInstr
		recs[i] = Record{
			Seq: int64(i), PC: i,
			Instr:   testInstr,
			NSrc:    2,
			SrcRegs: [2]isa.Reg{1, 2},
			SrcVals: [2]int64{r1, 3},
			DstVal:  r1 + 3,
			NextPC:  i + 1,
		}
		r1 += 3
	}
	return code, recs
}

// TestRecordingControlFlow replays a loop: taken and untaken branches, a
// call and return through jal/jr, a load and a store, so every kind of
// derived field (NextPC, Taken, Addr) comes back from the values alone.
func TestRecordingControlFlow(t *testing.T) {
	code := []isa.Instruction{
		{Op: isa.LDI, Dst: 1, Imm: 3},              // 0
		{Op: isa.JAL, Dst: 31, Target: 6},          // 1: call
		{Op: isa.ADDI, Dst: 1, Src1: 1, Imm: -1},   // 2
		{Op: isa.BNE, Src1: 1, Src2: 0, Target: 1}, // 3: loop
		{Op: isa.HALT},                          // 4
		{Op: isa.NOP},                           // 5: never reached
		{Op: isa.ST, Src1: 0, Src2: 1, Imm: 40}, // 6
		{Op: isa.LD, Dst: 2, Src1: 0, Imm: 40},  // 7
		{Op: isa.JR, Src1: 31},                  // 8: return
	}
	var want []Record
	r1, mem, pc := int64(0), int64(0), 0
	for seq := int64(0); ; seq++ {
		in := code[pc]
		rec := Record{Seq: seq, PC: pc, Instr: in, NextPC: pc + 1}
		rec.SrcRegs, rec.NSrc = in.SrcRegs()
		switch in.Op {
		case isa.LDI:
			r1, rec.DstVal = 3, 3
		case isa.JAL:
			rec.DstVal, rec.Taken, rec.NextPC = int64(pc+1), true, in.Target
		case isa.ADDI:
			rec.SrcVals[0] = r1
			r1--
			rec.DstVal = r1
		case isa.BNE:
			rec.SrcVals[0] = r1
			if r1 != 0 {
				rec.Taken, rec.NextPC = true, in.Target
			}
		case isa.ST:
			rec.SrcVals[1], rec.Addr = r1, 40
			mem = r1
		case isa.LD:
			rec.DstVal, rec.Addr = mem, 40
		case isa.JR:
			rec.SrcVals[0], rec.Taken, rec.NextPC = 2, true, 2
		}
		want = append(want, rec)
		if in.Op == isa.HALT {
			break
		}
		pc = rec.NextPC
	}
	rec, err := NewRecording(code, &SliceSource{Records: want})
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(rec.Cursor(), 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay diverged\ngot:  %v\nwant: %v", got, want)
	}
}

// TestRecordingRejectsForeignStreams checks that a stream the code cannot
// reproduce is refused instead of recorded into a different replay.
func TestRecordingRejectsForeignStreams(t *testing.T) {
	code, recs := testRecords(4)
	if _, err := NewRecording(code, &SliceSource{Records: recs}); err != nil {
		t.Fatalf("unmutated stream refused: %v", err)
	}
	for name, mutate := range map[string]func([]Record) []Record{
		"renumbered":     func(r []Record) []Record { r[2].Seq = 7; return r },
		"record missing": func(r []Record) []Record { return append(r[:1], r[2:]...) },
		"other program":  func(r []Record) []Record { r[1].Instr.Op = isa.SUB; return r },
		"pc past code":   func(r []Record) []Record { return append(r, Record{Seq: 4, PC: 4}) },
		"stray value":    func(r []Record) []Record { r[0].Addr = 9; return r },
		// r2 is never written, so its value cannot change.
		"unwritten register changes": func(r []Record) []Record { r[2].SrcVals[1] = 4; return r },
		"result differs":             func(r []Record) []Record { r[1].DstVal++; return r },
	} {
		_, recs := testRecords(len(code))
		if _, err := NewRecording(code, &SliceSource{Records: mutate(recs)}); err == nil || !strings.HasPrefix(err.Error(), "trace: record") {
			t.Errorf("%s: NewRecording err = %v, want a record error", name, err)
		}
	}
}
