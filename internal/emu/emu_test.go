package emu

import (
	"errors"
	"strings"
	"testing"

	"valuespec/internal/program"
	"valuespec/internal/trace"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := program.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
		ldi r1, 6
		ldi r2, 7
		mul r3, r1, r2
		sub r4, r3, r1
		div r5, r3, r2
		rem r6, r3, r4
		halt
	`)
	if got := m.Reg(3); got != 42 {
		t.Errorf("r3 = %d, want 42", got)
	}
	if got := m.Reg(4); got != 36 {
		t.Errorf("r4 = %d, want 36", got)
	}
	if got := m.Reg(5); got != 6 {
		t.Errorf("r5 = %d, want 6", got)
	}
	if got := m.Reg(6); got != 6 {
		t.Errorf("r6 = %d, want 6", got)
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	m := run(t, `
		ldi r0, 99
		addi r0, r0, 5
		add r1, r0, r0
		halt
	`)
	if m.Reg(0) != 0 {
		t.Errorf("r0 = %d, want 0", m.Reg(0))
	}
	if m.Reg(1) != 0 {
		t.Errorf("r1 = %d, want 0", m.Reg(1))
	}
}

func TestMemoryAndDataImage(t *testing.T) {
	m := run(t, `
		.word 100 7
		ldi r1, 100
		ld r2, (r1)
		addi r2, r2, 1
		st r2, 1(r1)
		ld r3, 1(r1)
		halt
	`)
	if m.Reg(2) != 8 || m.Reg(3) != 8 {
		t.Errorf("r2,r3 = %d,%d, want 8,8", m.Reg(2), m.Reg(3))
	}
	if m.Mem(101) != 8 {
		t.Errorf("mem[101] = %d, want 8", m.Mem(101))
	}
	if m.Mem(12345) != 0 {
		t.Errorf("untouched memory = %d, want 0", m.Mem(12345))
	}
}

func TestBranchesAndLoop(t *testing.T) {
	m := run(t, `
		ldi r1, 0
		ldi r2, 5
	loop:
		bge r1, r2, done
		addi r1, r1, 1
		jmp loop
	done:
		halt
	`)
	if m.Reg(1) != 5 {
		t.Errorf("r1 = %d, want 5", m.Reg(1))
	}
}

func TestCallReturn(t *testing.T) {
	m := run(t, `
		ldi r1, 10
		jal r31, double
		jal r31, double
		halt
	double:
		add r1, r1, r1
		jr r31
	`)
	if m.Reg(1) != 40 {
		t.Errorf("r1 = %d, want 40", m.Reg(1))
	}
}

func TestRecordContents(t *testing.T) {
	p := program.MustAssemble(`
		ldi r1, 3
		ldi r2, 100
		add r3, r1, r1
		st r3, 2(r2)
		ld r4, 2(r2)
		beq r3, r4, target
		nop
	target:
		halt
	`)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(m, 0)
	if len(recs) != 7 {
		t.Fatalf("got %d records, want 7", len(recs))
	}
	add := recs[2]
	if add.NSrc != 2 || add.SrcVals[0] != 3 || add.SrcVals[1] != 3 || add.DstVal != 6 {
		t.Errorf("add record wrong: %+v", add)
	}
	st := recs[3]
	if st.Addr != 102 || st.SrcVals[1] != 6 {
		t.Errorf("store record wrong: %+v", st)
	}
	ld := recs[4]
	if ld.Addr != 102 || ld.DstVal != 6 {
		t.Errorf("load record wrong: %+v", ld)
	}
	br := recs[5]
	if !br.Taken || br.NextPC != 7 {
		t.Errorf("branch record wrong: %+v", br)
	}
	for i, r := range recs {
		if r.Seq != int64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestJalRecord(t *testing.T) {
	p := program.MustAssemble(`
		jal r31, f
	f:	halt
	`)
	m, _ := New(p)
	rec, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rec.DstVal != 1 || rec.NextPC != 1 || !rec.Taken {
		t.Errorf("jal record wrong: %+v", rec)
	}
}

func TestBudgetHaltsCleanly(t *testing.T) {
	p := program.MustAssemble(`
	spin:	jmp spin
	`)
	m, err := New(p, WithBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 10 || !m.Halted() {
		t.Errorf("ran %d instructions (halted=%t), want 10 (true)", n, m.Halted())
	}
	if _, err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt: err = %v, want ErrHalted", err)
	}
}

func TestPCOutOfRange(t *testing.T) {
	p := program.MustAssemble(`
		ldi r1, 99
		jr r1
	`)
	m, _ := New(p)
	if _, err := m.Run(0); err == nil {
		t.Error("jump out of range did not error")
	}
	if !m.Halted() {
		t.Error("machine not halted after fault")
	}
	if m.Err() == nil {
		t.Error("Err is nil after the fault")
	}
}

// TestNextExposesFault checks that a stream ending in a fault is told apart
// from a clean halt: jumping out of the code, and running off its end, both
// end the Next stream and leave the fault in Err.
func TestNextExposesFault(t *testing.T) {
	for _, tc := range []struct {
		src  string
		recs int
	}{
		{"ldi r1, 99\njr r1", 2},
		{"ldi r1, 1\naddi r1, r1, 1", 2},
		{"ldi r1, 1\nhalt", 2},
	} {
		m, err := New(program.MustAssemble(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(m, 0)
		if len(recs) != tc.recs || !m.Halted() {
			t.Errorf("%q: %d records, halted %t; want %d, true", tc.src, len(recs), m.Halted(), tc.recs)
		}
		clean := strings.HasSuffix(tc.src, "halt")
		if err := m.Err(); (err == nil) != clean {
			t.Errorf("%q: Err = %v, want a fault: %t", tc.src, err, !clean)
		}
	}
}

func TestNewRejectsInvalidProgram(t *testing.T) {
	if _, err := New(&program.Program{Name: "bad"}); err == nil {
		t.Error("New accepted an empty program")
	}
}

func TestNextImplementsSource(t *testing.T) {
	p := program.MustAssemble("nop\nnop\nhalt")
	m, _ := New(p)
	var src trace.Source = m
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("source yielded %d records, want 3", n)
	}
}

func TestRunLimit(t *testing.T) {
	p := program.MustAssemble(`
	spin:	jmp spin
	`)
	m, _ := New(p)
	n, err := m.Run(7)
	if err != nil || n != 7 {
		t.Errorf("Run(7) = %d, %v; want 7, nil", n, err)
	}
	if m.Halted() {
		t.Error("machine halted by limit, should merely pause")
	}
}

func TestMemImagePaging(t *testing.T) {
	var mi memImage
	// Touch addresses across several pages, including negatives.
	addrs := []int64{0, 1, 4095, 4096, 1 << 20, -1, -4096}
	for i, a := range addrs {
		mi.write(a, int64(i+1))
	}
	for i, a := range addrs {
		if got := mi.read(a); got != int64(i+1) {
			t.Errorf("mem[%d] = %d, want %d", a, got, i+1)
		}
	}
	if got := mi.read(777777); got != 0 {
		t.Errorf("untouched word = %d, want 0", got)
	}
}

func TestExecutedCounter(t *testing.T) {
	m := run(t, "nop\nnop\nnop\nhalt")
	if m.Executed() != 4 {
		t.Errorf("Executed = %d, want 4", m.Executed())
	}
}
