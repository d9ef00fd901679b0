package rtl

import "fmt"

// ParseError reports a syntax error with line context.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("rtl: line %d: %s", e.Line, e.Msg) }

// parser is a recursive-descent / precedence-climbing parser over the
// token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses an RTL statement list (the body of a spawn "val" or
// "sem" clause) and returns its AST.  A single expression parses to
// that expression; multiple parallel or sequential operations parse
// to a Seq.
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseStmtList()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input starting at %q", p.peek().text)
	}
	return UnwrapSeq(n), nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes a token; the EOF sentinel is sticky so error paths
// deep in the grammar can never index past the stream.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) atOp(s string) bool {
	t := p.peek()
	return t.kind == tokOp && t.text == s
}

func (p *parser) eatOp(s string) bool {
	if p.atOp(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(s string) error {
	if !p.eatOp(s) {
		return p.errf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.peek().line, Msg: fmt.Sprintf(format, args...)}
}

// parseStmtList parses steps separated by ';', each step a ','-list
// of parallel operations.
func (p *parser) parseStmtList() (Node, error) {
	var steps [][]Node
	for {
		var step []Node
		for {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			step = append(step, s)
			if !p.eatOp(",") {
				break
			}
		}
		steps = append(steps, step)
		if !p.eatOp(";") {
			break
		}
	}
	return Seq{Steps: steps}, nil
}

// parseStmt parses one operation: an assignment, a guarded statement
// ("cond ? stmt : stmt", right-associative through the else arm), or
// a bare expression.
func (p *parser) parseStmt() (Node, error) {
	e, err := p.parseMapLevel()
	if err != nil {
		return nil, err
	}
	if p.eatOp(":=") {
		rhs, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return Assign{LHS: e, RHS: rhs}, nil
	}
	if p.eatOp("?") {
		t, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var f Node
		if p.eatOp(":") {
			f, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return Cond{C: e, T: t, F: f}, nil
	}
	return e, nil
}

func (p *parser) parseMapLevel() (Node, error) {
	e, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	for p.eatOp("@") {
		v, err := p.parseBinary(0)
		if err != nil {
			return nil, err
		}
		e = MapApply{Fn: e, Vec: v}
	}
	return e, nil
}

// binLevels lists binary operators from loosest to tightest.  "=" is
// accepted as a synonym for "==" (the paper writes "aflag=1").
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"==", "!=", "<", "<=", ">", ">=", "="},
	{"|"},
	{"^"},
	{"&"},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Node, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range binLevels[level] {
			if p.atOp(op) {
				matched = op
				break
			}
		}
		if matched == "" {
			return l, nil
		}
		p.next()
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		if matched == "=" {
			matched = "=="
		}
		l = Bin{Op: matched, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Node, error) {
	for _, op := range []string{"-", "~", "!"} {
		if p.atOp(op) {
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return Un{Op: op, X: x}, nil
		}
	}
	return p.parseApp()
}

// parseApp parses juxtaposition application: f x y == ((f x) y).
// A parenthesized multi-operation argument applies element-wise, so
// "cc_add(a, b)" becomes Apply(Apply(cc_add, a), b).
func (p *parser) parseApp() (Node, error) {
	f, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	for p.startsPrimary() {
		arg, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		f = applyArg(f, arg)
	}
	return f, nil
}

// applyArg applies f to arg, spreading a one-step parenthesized
// tuple "(a, b, c)" into curried applications.
func applyArg(f, arg Node) Node {
	if s, ok := arg.(Seq); ok && len(s.Steps) == 1 && len(s.Steps[0]) > 1 {
		for _, a := range s.Steps[0] {
			f = Apply{Fn: f, Arg: UnwrapSeq(a)}
		}
		return f
	}
	return Apply{Fn: f, Arg: UnwrapSeq(arg)}
}

func (p *parser) startsPrimary() bool {
	t := p.peek()
	switch t.kind {
	case tokNum, tokIdent, tokSym:
		return true
	case tokOp:
		return t.text == "(" || t.text == "[" || t.text == "\\"
	}
	return false
}

// parsePostfix parses a primary followed by indexing "[e]" and an
// optional width suffix "{n}" (memory references: M[e]{w}).
func (p *parser) parsePostfix() (Node, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("["):
			p.next()
			idx, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			e = Index{Base: e, Elem: UnwrapSeq(idx)}
		case p.atOp("{"):
			p.next()
			w, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("}"); err != nil {
				return nil, err
			}
			ix, ok := e.(Index)
			if !ok {
				return nil, p.errf("width suffix {..} only follows an indexed reference")
			}
			ix.Width = UnwrapSeq(w)
			e = ix
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch t.kind {
	case tokNum:
		p.next()
		return Num{Val: t.val}, nil
	case tokIdent:
		p.next()
		return Ident{Name: t.text}, nil
	case tokSym:
		p.next()
		return Sym{Name: t.text}, nil
	}
	switch {
	case p.eatOp("("):
		n, err := p.parseStmtList()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return n, nil
	case p.eatOp("["):
		return p.parseVector()
	case p.eatOp("\\"):
		name := p.next()
		if name.kind != tokIdent {
			return nil, p.errf("expected lambda parameter, found %q", name.text)
		}
		if err := p.expectOp("."); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return Lambda{Param: name.text, Body: body}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

// parseVector parses "[e1 e2 ...]" with whitespace (or optional
// comma) separated elements, supporting numeric ranges "lo..hi".
// Elements are postfix expressions: juxtaposition separates elements
// rather than applying, matching the paper's name matrices.
func (p *parser) parseVector() (Node, error) {
	var elems []Node
	for !p.atOp("]") {
		e, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		if p.atOp(".") {
			// Range lo..hi of integer literals.
			p.next()
			if err := p.expectOp("."); err != nil {
				return nil, err
			}
			hiN, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			lo, ok1 := e.(Num)
			hi, ok2 := hiN.(Num)
			if !ok1 || !ok2 || hi.Val < lo.Val {
				return nil, p.errf("bad range in vector")
			}
			for v := lo.Val; v <= hi.Val; v++ {
				elems = append(elems, Num{Val: v})
			}
		} else {
			elems = append(elems, e)
		}
		p.eatOp(",") // commas optional between elements
	}
	p.next() // consume ']'
	return Vector{Elems: elems}, nil
}
