// Package spawn implements the paper's machine-description compiler
// (§4, Fig 7).  A description declares instruction fields, register
// files and aliases, instruction encodings ("pat" clauses, including
// the paper's matrix convention where a vector of names expands over
// the cross product of field-value vectors), and instruction
// semantics ("val"/"sem" clauses in the RTL language, with
// description-level lambdas, vectors, and the elementwise "@"
// operator).
//
// From a description, spawn derives everything EEL's
// machine-independent layers need: a decoder (mask/match per
// instruction), the functional classification of every instruction,
// the registers each instruction reads and writes, memory access
// widths, delay-slot and annulment behaviour, and statically
// computable control-transfer targets.  The paper's observation is
// that this derivation makes the machine-specific layer an order of
// magnitude smaller and substantially less bug-prone than handwritten
// equivalents; experiment E9 measures that ratio for this repository.
package spawn

import (
	"fmt"
	"sort"
	"strings"

	"eel/internal/machine"
	"eel/internal/rtl"
)

// Field is one instruction-word bit field, bits Lo..Hi inclusive
// (bit 0 is the least significant).
type Field struct {
	Name   string
	Lo, Hi int
}

// Width returns the field's width in bits.
func (f Field) Width() int { return f.Hi - f.Lo + 1 }

// Mask returns the field's bit mask within the instruction word.
func (f Field) Mask() uint32 {
	return ((1 << uint(f.Width())) - 1) << uint(f.Lo)
}

// Extract returns the field's (unsigned) value in word.
func (f Field) Extract(word uint32) uint32 {
	return (word & f.Mask()) >> uint(f.Lo)
}

// Insert returns word with the field set to v.
func (f Field) Insert(word, v uint32) uint32 {
	return (word &^ f.Mask()) | ((v << uint(f.Lo)) & f.Mask())
}

// RegFile is a register file declaration ("register integer{32} R[36]").
type RegFile struct {
	Name  string
	Typ   string // "integer" or "float"
	Width int    // bits
	Count int    // 0 for scalar registers such as pc
}

// Alias names one register of a file ("alias integer{32} PSR is R[33]").
type Alias struct {
	Name  string
	File  string
	Index int64
}

// InstDef is one named instruction derived from a pat clause, with
// its semantics bound by a sem clause and the metadata spawn derives
// from that semantics.
type InstDef struct {
	Name  string
	Mask  uint32
	Match uint32
	// Fixed holds the field values the encoding pins down.
	Fixed map[string]uint32
	// Sem is the ground semantic AST (lambdas reduced away).
	Sem rtl.Node

	// Derived at description-compile time (Desc.analyze):
	Info ClassInfo
}

// Desc is a compiled machine description.
type Desc struct {
	// MachineName is the description's self-declared name.
	MachineName string
	// WordBits is the instruction width (32).
	WordBits int

	Fields  []Field
	Files   []RegFile
	Aliases []Alias
	Insts   []*InstDef

	// ZeroFile/ZeroIndex name the hardwired-zero register, if any
	// ("zero is R[0]").
	ZeroFile  string
	ZeroIndex int64
	HasZero   bool

	fieldByName map[string]*Field
	// byName is Fields in name order, the order of every word's
	// field values; names is their names, shared by all words.
	byName      []Field
	names       []string
	fileByName  map[string]*RegFile
	aliasByName map[string]*Alias
	instByName  map[string]*InstDef
	vals        map[string]rtl.Node

	// buckets indexes instructions by the word bits every pattern
	// constrains, for fast decoding.
	commonMask uint32
	buckets    map[uint32][]*InstDef

	// SourceLines counts non-comment, non-blank description lines
	// (experiment E9).
	SourceLines int
}

// DescError reports a description compilation failure.
type DescError struct {
	Line int
	Msg  string
}

func (e *DescError) Error() string { return fmt.Sprintf("spawn: line %d: %s", e.Line, e.Msg) }

// clause is one top-level description clause, split line-wise: a
// clause starts at a line whose first word is a keyword and extends
// to the next such line.
type clause struct {
	keyword string
	text    string // full clause text including keyword
	line    int
}

var clauseKeywords = map[string]bool{
	"machine":     true,
	"instruction": true,
	"register":    true,
	"alias":       true,
	"zero":        true,
	"pat":         true,
	"val":         true,
	"sem":         true,
}

// ParseDesc compiles a machine description.
func ParseDesc(src string) (*Desc, error) {
	d := &Desc{
		WordBits:    32,
		fieldByName: map[string]*Field{},
		fileByName:  map[string]*RegFile{},
		aliasByName: map[string]*Alias{},
		instByName:  map[string]*InstDef{},
		vals:        map[string]rtl.Node{},
	}
	clauses, lines, err := splitClauses(src)
	if err != nil {
		return nil, err
	}
	d.SourceLines = lines
	for _, c := range clauses {
		var err error
		switch c.keyword {
		case "machine":
			err = d.parseMachine(c)
		case "instruction":
			err = d.parseFields(c)
		case "register":
			err = d.parseRegister(c)
		case "alias":
			err = d.parseAlias(c)
		case "zero":
			err = d.parseZero(c)
		case "pat":
			err = d.parsePat(c)
		case "val":
			err = d.parseVal(c)
		case "sem":
			err = d.parseSem(c)
		}
		if err != nil {
			return nil, err
		}
	}
	d.byName = append([]Field(nil), d.Fields...)
	sort.Slice(d.byName, func(i, j int) bool { return d.byName[i].Name < d.byName[j].Name })
	for _, f := range d.byName {
		d.names = append(d.names, f.Name)
	}
	if err := d.analyze(); err != nil {
		return nil, err
	}
	d.buildBuckets()
	return d, nil
}

// MustParseDesc is ParseDesc for embedded, test-validated descriptions.
func MustParseDesc(src string) *Desc {
	d, err := ParseDesc(src)
	if err != nil {
		panic(err)
	}
	return d
}

// splitClauses splits a description into keyword-introduced clauses
// and counts non-comment, non-blank lines.
func splitClauses(src string) ([]clause, int, error) {
	var clauses []clause
	var cur *clause
	lines := 0
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if idx := strings.Index(line, "//"); idx >= 0 {
			line = line[:idx]
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		lines++
		word := firstWord(trimmed)
		if clauseKeywords[word] && !strings.HasPrefix(raw, " ") && !strings.HasPrefix(raw, "\t") {
			clauses = append(clauses, clause{keyword: word, line: i + 1})
			cur = &clauses[len(clauses)-1]
		}
		if cur == nil {
			return nil, 0, &DescError{i + 1, fmt.Sprintf("text before first clause: %q", trimmed)}
		}
		cur.text += line + "\n"
	}
	return clauses, lines, nil
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return s[:i]
		}
	}
	return s
}

// parseMachine handles "machine NAME".
func (d *Desc) parseMachine(c clause) error {
	fields := strings.Fields(c.text)
	if len(fields) != 2 {
		return &DescError{c.line, "machine clause wants one name"}
	}
	d.MachineName = fields[1]
	return nil
}

// parseFields handles "instruction{32} fields" followed by
// comma-separated "name lo:hi" declarations.
func (d *Desc) parseFields(c clause) error {
	body := strings.TrimSpace(c.text)
	// Strip "instruction{NN} fields" header.
	idx := strings.Index(body, "fields")
	if idx < 0 {
		return &DescError{c.line, "instruction clause lacks 'fields'"}
	}
	header := body[:idx]
	if open := strings.Index(header, "{"); open >= 0 {
		closeIdx := strings.Index(header, "}")
		if closeIdx < 0 {
			return &DescError{c.line, "unterminated width in instruction clause"}
		}
		var bits int
		if _, err := fmt.Sscanf(header[open+1:closeIdx], "%d", &bits); err != nil {
			return &DescError{c.line, "bad instruction width"}
		}
		d.WordBits = bits
	}
	for _, decl := range strings.Split(body[idx+len("fields"):], ",") {
		decl = strings.TrimSpace(decl)
		if decl == "" {
			continue
		}
		var name string
		var lo, hi int
		if _, err := fmt.Sscanf(decl, "%s %d:%d", &name, &lo, &hi); err != nil {
			return &DescError{c.line, fmt.Sprintf("bad field declaration %q", decl)}
		}
		if lo > hi || hi >= d.WordBits {
			return &DescError{c.line, fmt.Sprintf("field %s bits %d:%d out of range", name, lo, hi)}
		}
		if _, dup := d.fieldByName[name]; dup {
			return &DescError{c.line, "duplicate field " + name}
		}
		d.Fields = append(d.Fields, Field{Name: name, Lo: lo, Hi: hi})
		d.fieldByName[name] = &d.Fields[len(d.Fields)-1]
	}
	return nil
}

// parseRegister handles "register integer{32} R[36]" and scalar
// "register integer{32} pc".
func (d *Desc) parseRegister(c clause) error {
	var typ string
	var width int
	var decl string
	body := strings.TrimSpace(c.text)
	if _, err := fmt.Sscanf(body, "register %s", &typ); err != nil {
		return &DescError{c.line, "bad register clause"}
	}
	open := strings.Index(typ, "{")
	closeIdx := strings.Index(typ, "}")
	if open < 0 || closeIdx < open {
		return &DescError{c.line, "register type needs a {width}"}
	}
	if _, err := fmt.Sscanf(typ[open+1:closeIdx], "%d", &width); err != nil {
		return &DescError{c.line, "bad register width"}
	}
	rest := strings.TrimSpace(body[strings.Index(body, typ)+len(typ):])
	decl = rest
	rf := RegFile{Typ: typ[:open], Width: width}
	if b := strings.Index(decl, "["); b >= 0 {
		rf.Name = strings.TrimSpace(decl[:b])
		e := strings.Index(decl, "]")
		if e < b {
			return &DescError{c.line, "unterminated register count"}
		}
		if _, err := fmt.Sscanf(decl[b+1:e], "%d", &rf.Count); err != nil {
			return &DescError{c.line, "bad register count"}
		}
	} else {
		rf.Name = strings.TrimSpace(decl)
		rf.Count = 0
	}
	if rf.Name == "" {
		return &DescError{c.line, "register clause lacks a name"}
	}
	if _, dup := d.fileByName[rf.Name]; dup {
		return &DescError{c.line, "duplicate register file " + rf.Name}
	}
	d.Files = append(d.Files, rf)
	d.fileByName[rf.Name] = &d.Files[len(d.Files)-1]
	return nil
}

// parseAlias handles "alias integer{32} PSR is R[33]".
func (d *Desc) parseAlias(c clause) error {
	body := strings.TrimSpace(c.text)
	parts := strings.Fields(body)
	// alias TYPE NAME is FILE[IDX]
	if len(parts) < 5 || parts[3] != "is" {
		return &DescError{c.line, "bad alias clause"}
	}
	name := parts[2]
	ref := strings.Join(parts[4:], "")
	b := strings.Index(ref, "[")
	e := strings.Index(ref, "]")
	if b < 0 || e < b {
		return &DescError{c.line, "alias target must be FILE[INDEX]"}
	}
	a := Alias{Name: name, File: ref[:b]}
	if _, err := fmt.Sscanf(ref[b+1:e], "%d", &a.Index); err != nil {
		return &DescError{c.line, "bad alias index"}
	}
	if _, ok := d.fileByName[a.File]; !ok {
		return &DescError{c.line, "alias of unknown register file " + a.File}
	}
	d.Aliases = append(d.Aliases, a)
	d.aliasByName[name] = &d.Aliases[len(d.Aliases)-1]
	return nil
}

// parseZero handles "zero is R[0]".
func (d *Desc) parseZero(c clause) error {
	body := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.text), "zero"))
	body = strings.TrimSpace(strings.TrimPrefix(body, "is"))
	b := strings.Index(body, "[")
	e := strings.Index(body, "]")
	if b < 0 || e < b {
		return &DescError{c.line, "zero clause wants FILE[INDEX]"}
	}
	d.ZeroFile = strings.TrimSpace(body[:b])
	if _, err := fmt.Sscanf(body[b+1:e], "%d", &d.ZeroIndex); err != nil {
		return &DescError{c.line, "bad zero register index"}
	}
	if _, ok := d.fileByName[d.ZeroFile]; !ok {
		return &DescError{c.line, "zero register in unknown file " + d.ZeroFile}
	}
	d.HasZero = true
	return nil
}

// splitIs divides a clause body (after its keyword) at the "is"
// keyword separating names from definition.
func splitIs(c clause) (names, body string, err error) {
	text := strings.TrimSpace(c.text)
	text = strings.TrimSpace(text[len(c.keyword):])
	// Find " is " at nesting depth zero.
	depth := 0
	for i := 0; i+2 <= len(text); i++ {
		switch text[i] {
		case '[', '(', '{':
			depth++
		case ']', ')', '}':
			depth--
		}
		if depth == 0 && strings.HasPrefix(text[i:], "is") &&
			(i == 0 || !isWordByte(text[i-1])) &&
			(i+2 == len(text) || !isWordByte(text[i+2])) {
			return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+2:]), nil
		}
	}
	return "", "", &DescError{c.line, "clause lacks 'is'"}
}

func isWordByte(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// parsePat handles encoding patterns, expanding name matrices over
// the cross product of vector-valued field constraints (leftmost
// constraint varies slowest, matching the paper's Fig 7 layout).
func (d *Desc) parsePat(c clause) error {
	namesText, body, err := splitIs(c)
	if err != nil {
		return err
	}
	names, err := parseNames(namesText, c.line)
	if err != nil {
		return err
	}
	constraintsNode, err := rtl.Parse(body)
	if err != nil {
		return &DescError{c.line, fmt.Sprintf("bad pattern: %v", err)}
	}
	// Flatten the && conjunction into field constraints.
	type constraint struct {
		field *Field
		vals  []uint32
	}
	var cons []constraint
	var flatten func(n rtl.Node) error
	flatten = func(n rtl.Node) error {
		n = rtl.UnwrapSeq(n)
		if b, ok := n.(rtl.Bin); ok && b.Op == "&&" {
			if err := flatten(b.L); err != nil {
				return err
			}
			return flatten(b.R)
		}
		b, ok := n.(rtl.Bin)
		if !ok || b.Op != "==" {
			return &DescError{c.line, fmt.Sprintf("pattern constraint must be field=value, got %s", n)}
		}
		id, ok := rtl.UnwrapSeq(b.L).(rtl.Ident)
		if !ok {
			return &DescError{c.line, "pattern constraint must name a field"}
		}
		f, ok := d.fieldByName[id.Name]
		if !ok {
			return &DescError{c.line, "pattern names unknown field " + id.Name}
		}
		var vals []uint32
		switch v := rtl.UnwrapSeq(b.R).(type) {
		case rtl.Num:
			vals = []uint32{uint32(v.Val)}
		case rtl.Vector:
			for _, e := range v.Elems {
				num, ok := rtl.UnwrapSeq(e).(rtl.Num)
				if !ok {
					return &DescError{c.line, "pattern vector elements must be numbers"}
				}
				vals = append(vals, uint32(num.Val))
			}
		default:
			return &DescError{c.line, "pattern value must be a number or vector"}
		}
		cons = append(cons, constraint{field: f, vals: vals})
		return nil
	}
	if err := flatten(constraintsNode); err != nil {
		return err
	}
	total := 1
	for _, con := range cons {
		total *= len(con.vals)
	}
	if total != len(names) {
		return &DescError{c.line, fmt.Sprintf("pattern expands to %d encodings but %d names given", total, len(names))}
	}
	for i, name := range names {
		if name == "_" {
			continue // hole in the matrix: encoding intentionally left undefined
		}
		var mask, match uint32
		fixed := map[string]uint32{}
		rem := i
		// Leftmost constraint varies slowest.
		stride := total
		for _, con := range cons {
			stride /= len(con.vals)
			v := con.vals[(rem/stride)%len(con.vals)]
			rem %= stride
			mask |= con.field.Mask()
			match |= v << uint(con.field.Lo)
			fixed[con.field.Name] = v
		}
		if _, dup := d.instByName[name]; dup {
			return &DescError{c.line, "duplicate instruction " + name}
		}
		def := &InstDef{Name: name, Mask: mask, Match: match, Fixed: fixed}
		d.Insts = append(d.Insts, def)
		d.instByName[name] = def
	}
	return nil
}

// parseNames parses either a bare name or a bracketed name vector,
// with "_" marking holes.
func parseNames(text string, line int) ([]string, error) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "[") {
		if text == "" || strings.ContainsAny(text, " \t\n") {
			return nil, &DescError{line, "bad name list"}
		}
		return []string{text}, nil
	}
	if !strings.HasSuffix(text, "]") {
		return nil, &DescError{line, "unterminated name vector"}
	}
	return strings.Fields(text[1 : len(text)-1]), nil
}

// parseVal handles "val name is BODY".
func (d *Desc) parseVal(c clause) error {
	namesText, body, err := splitIs(c)
	if err != nil {
		return err
	}
	names, err := parseNames(namesText, c.line)
	if err != nil || len(names) != 1 {
		return &DescError{c.line, "val clause wants exactly one name"}
	}
	node, err := rtl.Parse(body)
	if err != nil {
		return &DescError{c.line, fmt.Sprintf("bad val body: %v", err)}
	}
	if _, dup := d.vals[names[0]]; dup {
		return &DescError{c.line, "duplicate val " + names[0]}
	}
	d.vals[names[0]] = node
	return nil
}

// parseSem handles "sem NAMES is BODY": it meta-evaluates the body
// (beta-reducing description-level lambdas and expanding "@") and
// binds the resulting semantics — a vector zips elementwise with a
// name vector.  A later sem for the same name overrides an earlier
// one, which lets a description refine one member of a matrix (the
// SPARC description overrides "ba", whose annul behaviour differs
// from conditional branches).
func (d *Desc) parseSem(c clause) error {
	namesText, body, err := splitIs(c)
	if err != nil {
		return err
	}
	names, err := parseNames(namesText, c.line)
	if err != nil {
		return err
	}
	node, err := rtl.Parse(body)
	if err != nil {
		return &DescError{c.line, fmt.Sprintf("bad sem body: %v", err)}
	}
	ground, err := d.metaEval(node, 0)
	if err != nil {
		return &DescError{c.line, fmt.Sprintf("sem %v: %v", names, err)}
	}
	var sems []rtl.Node
	if vec, ok := ground.(rtl.Vector); ok && len(names) > 1 {
		sems = vec.Elems
	} else {
		sems = []rtl.Node{ground}
	}
	if len(sems) != len(names) {
		return &DescError{c.line, fmt.Sprintf("sem binds %d names to %d semantics", len(names), len(sems))}
	}
	for i, name := range names {
		def, ok := d.instByName[name]
		if !ok {
			return &DescError{c.line, "sem for undeclared instruction " + name}
		}
		def.Sem = sems[i]
	}
	return nil
}

// Field returns the named field.
func (d *Desc) Field(name string) (*Field, bool) {
	f, ok := d.fieldByName[name]
	return f, ok
}

// File returns the named register file.
func (d *Desc) File(name string) (*RegFile, bool) {
	f, ok := d.fileByName[name]
	return f, ok
}

// AliasFor resolves a register alias.
func (d *Desc) AliasFor(name string) (*Alias, bool) {
	a, ok := d.aliasByName[name]
	return a, ok
}

// Lookup returns the named instruction definition.
func (d *Desc) Lookup(name string) (*InstDef, bool) {
	def, ok := d.instByName[name]
	return def, ok
}

// buildBuckets indexes instructions by the bits every pattern
// constrains, so decoding probes one small bucket.
func (d *Desc) buildBuckets() {
	d.commonMask = ^uint32(0)
	for _, def := range d.Insts {
		d.commonMask &= def.Mask
	}
	d.buckets = map[uint32][]*InstDef{}
	for _, def := range d.Insts {
		key := def.Match & d.commonMask
		d.buckets[key] = append(d.buckets[key], def)
	}
}

// DecodeRaw finds the instruction definition matching word, or nil.
func (d *Desc) DecodeRaw(word uint32) *InstDef {
	for _, def := range d.buckets[word&d.commonMask] {
		if word&def.Mask == def.Match {
			return def
		}
	}
	return nil
}

// FieldVals extracts every declared field's value from word, in
// field-name order.
func (d *Desc) FieldVals(word uint32) machine.FieldVals {
	vals := make([]uint32, len(d.byName))
	for i, f := range d.byName {
		vals[i] = f.Extract(word)
	}
	return machine.FieldVals{Names: d.names, Vals: vals}
}
