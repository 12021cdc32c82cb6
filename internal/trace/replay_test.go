package trace

import (
	"reflect"
	"strings"
	"testing"

	"valuespec/internal/isa"
)

var testInstr = isa.Instruction{Op: isa.ADD, Dst: 1, Src1: 2, Src2: 3}

// testRecords is the stream of a straight-line program of n testInstr.
func testRecords(n int) ([]isa.Instruction, []Record) {
	code := make([]isa.Instruction, n)
	recs := make([]Record, n)
	for i := range recs {
		code[i] = testInstr
		recs[i] = Record{
			Seq: int64(i), PC: i,
			Instr:   testInstr,
			NSrc:    2,
			SrcRegs: [2]isa.Reg{2, 3},
			SrcVals: [2]int64{int64(i), int64(2 * i)},
			DstVal:  int64(3 * i),
			NextPC:  i + 1,
		}
	}
	return code, recs
}

func TestRecordingIndependentCursors(t *testing.T) {
	code, recs := testRecords(5)
	rec, err := NewRecording(code, &SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 5 {
		t.Fatalf("Len = %d, want 5", rec.Len())
	}
	if rec.Bytes() < 5*3*8 {
		t.Fatalf("Bytes = %d, want at least the %d value bytes", rec.Bytes(), 5*3*8)
	}
	a, b := rec.Cursor(), rec.Cursor()
	// Advance a past b; b must be unaffected.
	if r, ok := a.Next(); !ok || r.Seq != 0 {
		t.Fatalf("a.Next = %v, %t", r, ok)
	}
	if r, ok := a.Next(); !ok || r.Seq != 1 {
		t.Fatalf("a.Next = %v, %t", r, ok)
	}
	if r, ok := b.Next(); !ok || r.Seq != 0 {
		t.Fatalf("b.Next = %v, %t after advancing a", r, ok)
	}
	got := Collect(a, 0)
	if !reflect.DeepEqual(got, recs[2:]) {
		t.Fatalf("a drained %v, want %v", got, recs[2:])
	}
	if _, ok := a.Next(); ok {
		t.Fatal("a.Next reported a record past the end")
	}
	if r, ok := a.NextRef(); ok || r != nil {
		t.Fatalf("a.NextRef = %v, %t past the end", r, ok)
	}
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
	code, _ := testRecords(4)
	for name, mutate := range map[string]func([]Record) []Record{
		"renumbered":     func(r []Record) []Record { r[2].Seq = 7; return r },
		"record missing": func(r []Record) []Record { return append(r[:1], r[2:]...) },
		"other program":  func(r []Record) []Record { r[1].Instr.Op = isa.SUB; return r },
		"pc past code":   func(r []Record) []Record { return append(r, Record{Seq: 4, PC: 4}) },
		"stray value":    func(r []Record) []Record { r[0].Addr = 9; return r },
	} {
		_, recs := testRecords(len(code))
		if _, err := NewRecording(code, &SliceSource{Records: mutate(recs)}); err == nil || !strings.HasPrefix(err.Error(), "trace: record") {
			t.Errorf("%s: NewRecording err = %v, want a record error", name, err)
		}
	}
}
