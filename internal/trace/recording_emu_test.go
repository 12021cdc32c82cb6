package trace_test

import (
	"reflect"
	"testing"

	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// sumProgram loads pairs of words, multiplies them into a running sum it
// stores back, and calls a subroutine through jal/jr to advance its pointer:
// every way a replayed record gets its values, in a loop.
const sumProgram = `
.words 100 7 9 11 13 15 17
	ldi r1, 100
	ldi r2, 4
loop:
	ld r3, 0(r1)
	ld r4, 1(r1)
	mul r5, r3, r4
	add r9, r9, r5
	st r9, 2(r1)
	jal r31, bump
	addi r2, r2, -1
	bne r2, r0, loop
	halt
bump:
	addi r1, r1, 1
	jr r31
`

// emulator returns a machine running sumProgram after its first k steps.
func emulator(t *testing.T, k int64) (*program.Program, *emu.Machine) {
	t.Helper()
	p := program.MustAssemble(sumProgram)
	m, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if k > 0 {
		if _, err := m.Run(k); err != nil {
			t.Fatal(err)
		}
	}
	return p, m
}

func TestRecordingIndependentCursors(t *testing.T) {
	_, ref := emulator(t, 0)
	recs := trace.Collect(ref, 0)
	var mix trace.Mix
	for i := range recs {
		mix.Observe(&recs[i])
	}
	p, m := emulator(t, 0)
	rec, err := trace.NewRecording(p.Code, m)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != int64(len(recs)) {
		t.Fatalf("Len = %d, want %d", rec.Len(), len(recs))
	}
	if loads := mix.ByClass[isa.ClassLoad]; loads == 0 || rec.Bytes() < 8*loads {
		t.Fatalf("Bytes = %d, want at least the %d bytes of its %d load values", rec.Bytes(), 8*loads, loads)
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
	got := trace.Collect(a, 0)
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

// TestRecordingMidRun records a stream that starts inside the loop, with
// live registers the stream never wrote: the recording must capture their
// values at their first read and replay the rest of the run field for field.
func TestRecordingMidRun(t *testing.T) {
	for _, k := range []int64{7, 13, 26} {
		_, ref := emulator(t, k)
		if ref.Reg(1) == 0 || ref.Reg(2) == 0 || ref.Reg(9) == 0 {
			t.Fatalf("after %d steps r1=%d r2=%d r9=%d, want live registers", k, ref.Reg(1), ref.Reg(2), ref.Reg(9))
		}
		want := trace.Collect(ref, 0)
		p, m := emulator(t, k)
		rec, err := trace.NewRecording(p.Code, m)
		if err != nil {
			t.Fatalf("after %d steps: %v", k, err)
		}
		got := trace.Collect(rec.Cursor(), 0)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("after %d steps: replayed %d records, emulator produced %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after %d steps: record %d differs\nemulator: %+v\nreplay:   %+v", k, i, want[i], got[i])
			}
		}
	}
}
