package db

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// Parse reads a database in the library's concrete syntax. Each clause
// ends with a period:
//
//	a | b.                  % disjunctive fact
//	c :- a, b.              % definite rule
//	a | b :- c, not d.      % disjunctive rule with negation
//	:- a, b.                % integrity clause (denial)
//
// '%' starts a comment running to end of line. The "←" of the paper is
// written ":-"; "∨" is "|" (";" is also accepted); "∧" is "," (or "&");
// "¬" is "not", "-" or "~". Atom names follow the identifier syntax of
// package logic's formula parser, except that "not" is a keyword in
// every position: an atom named "not" is a parse error wrapping
// ErrReservedWord, so every accepted text's rendering parses again.
func Parse(input string) (*DB, error) {
	d := New()
	if err := ParseInto(input, d); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseInto parses input and appends the clauses to d, interning atoms
// into d's vocabulary.
func ParseInto(input string, d *DB) error {
	p := &dbParser{src: input, db: d}
	return p.run()
}

// ErrReservedWord is wrapped by the parse error of a text that names an
// atom "not".
var ErrReservedWord = errors.New("reserved word")

type dbParser struct {
	src  string
	pos  int
	line int
	db   *DB
}

func (p *dbParser) errorf(format string, args ...any) error {
	return fmt.Errorf("db: line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

func (p *dbParser) skip() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case unicode.IsSpace(rune(c)):
			p.pos++
		case c == '%':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *dbParser) eat(tok string) bool {
	p.skip()
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *dbParser) eatWord(w string) bool {
	p.skip()
	if !strings.HasPrefix(p.src[p.pos:], w) {
		return false
	}
	end := p.pos + len(w)
	if end < len(p.src) && isIdentChar(rune(p.src[end])) {
		return false
	}
	p.pos = end
	return true
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentChar(r rune) bool {
	return r == '_' || r == '\'' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (p *dbParser) ident() (string, error) {
	p.skip()
	start := p.pos
	if p.pos >= len(p.src) || !isIdentStart(rune(p.src[p.pos])) {
		return "", p.errorf("expected atom name")
	}
	for p.pos < len(p.src) && isIdentChar(rune(p.src[p.pos])) {
		p.pos++
	}
	name := p.src[start:p.pos]
	// Identifiers may contain '.', but a trailing '.' is the clause
	// terminator, not part of the name.
	for strings.HasSuffix(name, ".") {
		name = name[:len(name)-1]
		p.pos--
	}
	if name == "" {
		return "", p.errorf("expected atom name")
	}
	if name == "not" {
		return "", fmt.Errorf("db: line %d: %w: %q is not an atom name", p.line+1, ErrReservedWord, name)
	}
	return name, nil
}

func (p *dbParser) run() error {
	for {
		p.skip()
		if p.pos >= len(p.src) {
			return nil
		}
		if err := p.clause(); err != nil {
			return err
		}
	}
}

func (p *dbParser) clause() error {
	var c Clause
	// Head: possibly empty when the clause starts with ":-".
	p.skip()
	if !strings.HasPrefix(p.src[p.pos:], ":-") {
		for {
			name, err := p.ident()
			if err != nil {
				return err
			}
			c.Head = append(c.Head, p.db.Voc.Intern(name))
			if p.eat("|") || p.eat(";") {
				continue
			}
			break
		}
	}
	if p.eat(":-") {
		// Body may be empty (":- ." is not allowed; a headless clause
		// must have at least one body literal).
		for {
			neg := p.eatWord("not") || p.eat("~")
			if !neg {
				// A '-' prefix also negates, but must not swallow
				// the '-' of an identifier... identifiers can't start
				// with '-', so this is unambiguous.
				neg = p.eat("-")
			}
			name, err := p.ident()
			if err != nil {
				return err
			}
			a := p.db.Voc.Intern(name)
			if neg {
				c.NegBody = append(c.NegBody, a)
			} else {
				c.PosBody = append(c.PosBody, a)
			}
			if p.eat(",") || p.eat("&") {
				continue
			}
			break
		}
	}
	if !p.eat(".") {
		return p.errorf("expected '.' at end of clause")
	}
	if len(c.Head) == 0 && len(c.PosBody) == 0 && len(c.NegBody) == 0 {
		return p.errorf("empty clause")
	}
	p.db.Add(c)
	return nil
}
