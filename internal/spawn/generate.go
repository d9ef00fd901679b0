package spawn

import (
	"fmt"
	"strings"
)

// GenerateGo emits a Go source file with the derived decode tables —
// what the paper's spawn produced as machine-specific C++ (§4: the
// 145-line SPARC description expands to a 6,178-line generated file).
func GenerateGo(desc *Desc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by cmd/spawn from the %s description; DO NOT EDIT.\n\n", desc.MachineName)
	fmt.Fprintf(&b, "package %stab\n\n", desc.MachineName)
	b.WriteString("// InstEntry is one derived instruction encoding.\n")
	b.WriteString("type InstEntry struct {\n\tName        string\n\tMask, Match uint32\n\tCategory    string\n\tDelaySlots  int\n\tReads       []uint16\n\tWrites      []uint16\n\tReadsMem    bool\n\tWritesMem   bool\n\tMemWidth    int\n\tSemantics   string\n}\n\n")
	fmt.Fprintf(&b, "// Table holds the %d instructions derived from the description.\n", len(desc.Insts))
	b.WriteString("var Table = []InstEntry{\n")
	for _, def := range desc.Insts {
		eff := def.Info.Effects
		fmt.Fprintf(&b, "\t{\n\t\tName: %q, Mask: 0x%08x, Match: 0x%08x,\n", def.Name, def.Mask, def.Match)
		fmt.Fprintf(&b, "\t\tCategory: %q, DelaySlots: %d,\n", def.Info.Cat, def.Info.DelaySlots)
		fmt.Fprintf(&b, "\t\tReads: %s, Writes: %s,\n", regList(eff.Reads.Regs()), regList(eff.Writes.Regs()))
		fmt.Fprintf(&b, "\t\tReadsMem: %v, WritesMem: %v, MemWidth: %d,\n", eff.ReadsMem, eff.WritesMem, eff.MemWidth())
		fmt.Fprintf(&b, "\t\tSemantics: %q,\n\t},\n", def.Sem.String())
	}
	b.WriteString("}\n\n")
	b.WriteString("// Fields lists the instruction bit fields.\n")
	b.WriteString("var Fields = map[string][2]int{\n")
	for _, f := range desc.Fields {
		fmt.Fprintf(&b, "\t%q: {%d, %d},\n", f.Name, f.Lo, f.Hi)
	}
	b.WriteString("}\n")
	return b.String()
}

func regList[T any](regs []T) string {
	var parts []string
	for _, r := range regs {
		parts = append(parts, fmt.Sprintf("%v", r))
	}
	return "[]uint16{" + strings.Join(parts, ", ") + "}"
}
