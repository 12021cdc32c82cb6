package program

import (
	"strings"
	"testing"

	"valuespec/internal/isa"
)

func TestBuilderForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder("labels")
	b.Label("top")
	b.Addi(1, 1, 1)
	b.Beq(1, 2, "end") // forward reference
	b.Jmp("top")       // backward reference
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Code[1].Target != 3 {
		t.Errorf("forward branch target = %d, want 3", p.Code[1].Target)
	}
	if p.Code[2].Target != 0 {
		t.Errorf("backward jump target = %d, want 0", p.Code[2].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("Build with undefined label: err = %v, want mention of label", err)
	}
}

func TestBuilderRedefinedLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "redefined") {
		t.Errorf("Build with duplicate label: err = %v, want redefinition error", err)
	}
}

func TestBuilderData(t *testing.T) {
	b := NewBuilder("data")
	b.InitWord(10, 42)
	b.InitWords(100, 1, 2, 3)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	addrs, vals := p.SortedData()
	wantAddrs := []int64{10, 100, 101, 102}
	wantVals := []int64{42, 1, 2, 3}
	if len(addrs) != len(wantAddrs) {
		t.Fatalf("got %d data words, want %d", len(addrs), len(wantAddrs))
	}
	for i := range addrs {
		if addrs[i] != wantAddrs[i] || vals[i] != wantVals[i] {
			t.Errorf("data[%d] = (%d,%d), want (%d,%d)", i, addrs[i], vals[i], wantAddrs[i], wantVals[i])
		}
	}
}

func TestValidateEmpty(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Error("empty program validated")
	}
}

func TestValidateBadEntry(t *testing.T) {
	p := &Program{Name: "e", Code: []isa.Instruction{{Op: isa.HALT}}, Entry: 5}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range entry validated")
	}
}

func TestValidateBadTarget(t *testing.T) {
	p := &Program{Name: "t", Code: []isa.Instruction{{Op: isa.JMP, Target: 99}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range jump target validated")
	}
}

func TestValidateBadRegister(t *testing.T) {
	p := &Program{Name: "r", Code: []isa.Instruction{{Op: isa.ADD, Dst: 40}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range register validated")
	}
}

func TestValidateBadOpcode(t *testing.T) {
	p := &Program{Name: "o", Code: []isa.Instruction{{Op: isa.Op(99)}}}
	if err := p.Validate(); err == nil {
		t.Error("invalid opcode validated")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid program")
		}
	}()
	NewBuilder("panic").Jmp("missing").MustBuild()
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder("dis")
	b.Ldi(1, 7)
	b.Halt()
	p := b.MustBuild()
	out := p.Disassemble()
	if !strings.Contains(out, "0: ldi r1, 7") || !strings.Contains(out, "1: halt") {
		t.Errorf("Disassemble output unexpected:\n%s", out)
	}
}

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
		.name demo
		; a comment
		.word 10 42
		.words 20 1 2 3
		start:
			ldi r1, 5
			addi r2, r1, -1   # trailing comment
			add r3, r1, r2
			ld r4, 8(r1)
			st r4, (r2)
			beq r3, r4, start
			jal r31, sub
			halt
		sub:
			jr r31
	`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.Name != "demo" {
		t.Errorf("name = %q, want demo", p.Name)
	}
	if p.Data[10] != 42 || p.Data[21] != 2 {
		t.Errorf("data image wrong: %v", p.Data)
	}
	want := []isa.Instruction{
		{Op: isa.LDI, Dst: 1, Imm: 5},
		{Op: isa.ADDI, Dst: 2, Src1: 1, Imm: -1},
		{Op: isa.ADD, Dst: 3, Src1: 1, Src2: 2},
		{Op: isa.LD, Dst: 4, Src1: 1, Imm: 8},
		{Op: isa.ST, Src1: 2, Src2: 4},
		{Op: isa.BEQ, Src1: 3, Src2: 4, Target: 0},
		{Op: isa.JAL, Dst: 31, Target: 8},
		{Op: isa.HALT},
		{Op: isa.JR, Src1: 31},
	}
	if len(p.Code) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(p.Code), len(want))
	}
	for i := range want {
		if p.Code[i] != want[i] {
			t.Errorf("instr %d = %+v, want %+v", i, p.Code[i], want[i])
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frobnicate r1, r2, r3", // unknown mnemonic
		"add r1, r2",            // wrong arity
		"add r1, r2, r99",       // bad register
		"ldi r1, notanumber",    // bad immediate
		"ld r1, r2",             // bad memory operand
		"jmp nowhere\nhalt",     // undefined label
		".word 10",              // wrong .word arity
		":",                     // empty label
		",",                     // separators only
		"l: ,",                  // separators only after a label
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssembleLineNumbers(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line 3", err)
	}
}

// TestRoundTrip checks that assembling a program's disassembly reproduces
// the code image, for a program touching every instruction form.
func TestRoundTrip(t *testing.T) {
	b := NewBuilder("round")
	b.Ldi(1, 123456789)
	b.Addi(2, 1, -3)
	b.Add(3, 1, 2)
	b.Sub(4, 3, 1)
	b.Mul(5, 4, 4)
	b.Div(6, 5, 2)
	b.Rem(7, 5, 2)
	b.And(8, 1, 2)
	b.Or(9, 1, 2)
	b.Xor(10, 1, 2)
	b.Shl(11, 1, 2)
	b.Shr(12, 1, 2)
	b.Sra(13, 1, 2)
	b.Slt(14, 1, 2)
	b.Andi(15, 1, 7)
	b.Ori(16, 1, 7)
	b.Xori(17, 1, 7)
	b.Shli(18, 1, 2)
	b.Shri(19, 1, 2)
	b.Slti(20, 1, 5)
	b.Ld(21, 1, 4)
	b.St(21, 1, 4)
	b.Label("here")
	b.Beq(1, 2, "here")
	b.Bne(1, 2, "here")
	b.Blt(1, 2, "here")
	b.Bge(1, 2, "here")
	b.Jal(31, "here")
	b.Jr(31)
	b.Nop()
	b.Jmp("here")
	b.Halt()
	p := b.MustBuild()

	// Rewrite "@N" targets as labels for reassembly.
	src := p.Disassemble()
	src = strings.ReplaceAll(src, "@22", "here")
	var lines []string
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, ": "); i >= 0 {
			if strings.HasPrefix(line[i+2:], "beq") && len(lines) > 0 {
				// insert the label before the first branch target user
			}
			line = line[i+2:]
		}
		lines = append(lines, line)
	}
	// Put the label at position 22.
	lines = append(lines[:22], append([]string{"here:"}, lines[22:]...)...)
	p2, err := Assemble(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("reassemble: %v", err)
	}
	if len(p2.Code) != len(p.Code) {
		t.Fatalf("round trip length %d, want %d", len(p2.Code), len(p.Code))
	}
	for i := range p.Code {
		if p.Code[i] != p2.Code[i] {
			t.Errorf("instr %d: %+v != %+v", i, p.Code[i], p2.Code[i])
		}
	}
}
