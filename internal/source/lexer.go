package source

import "fmt"

// lexer turns MiniLang source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
}

// newLexer returns a lexer over src, starting at line 1.
func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) nextByte() byte {
	c := lx.peekByte()
	lx.pos++
	if c == '\n' {
		lx.line++
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// skipSpace consumes whitespace and // and /* */ comments.
func (lx *lexer) skipSpace() error {
	for {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.nextByte()
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.peekByte() != 0 && lx.peekByte() != '\n' {
				lx.nextByte()
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			start := lx.line
			lx.nextByte()
			lx.nextByte()
			for {
				if lx.peekByte() == 0 {
					return fmt.Errorf("line %d: unterminated block comment", start)
				}
				if lx.peekByte() == '*' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
					lx.nextByte()
					lx.nextByte()
					break
				}
				lx.nextByte()
			}
		default:
			return nil
		}
	}
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpace(); err != nil {
		return token{}, err
	}
	line := lx.line
	c := lx.peekByte()
	if c == 0 {
		return token{Kind: eof, Line: line}, nil
	}
	switch {
	case isDigit(c):
		var n int64
		for isDigit(lx.peekByte()) {
			n = n*10 + int64(lx.nextByte()-'0')
		}
		return token{Kind: num, Num: n, Line: line}, nil
	case isAlpha(c):
		start := lx.pos
		for isAlpha(lx.peekByte()) || isDigit(lx.peekByte()) {
			lx.nextByte()
		}
		word := lx.src[start:lx.pos]
		if k, ok := keywords[word]; ok {
			return token{Kind: k, Text: word, Line: line}, nil
		}
		return token{Kind: ident, Text: word, Line: line}, nil
	}
	two := func(second byte, yes, no Kind) token {
		lx.nextByte()
		if lx.peekByte() == second {
			lx.nextByte()
			return token{Kind: yes, Line: line}
		}
		return token{Kind: no, Line: line}
	}
	switch c {
	case '(':
		lx.nextByte()
		return token{Kind: lParen, Line: line}, nil
	case ')':
		lx.nextByte()
		return token{Kind: rParen, Line: line}, nil
	case '{':
		lx.nextByte()
		return token{Kind: lBrace, Line: line}, nil
	case '}':
		lx.nextByte()
		return token{Kind: rBrace, Line: line}, nil
	case '[':
		lx.nextByte()
		return token{Kind: lBrack, Line: line}, nil
	case ']':
		lx.nextByte()
		return token{Kind: rBrack, Line: line}, nil
	case ',':
		lx.nextByte()
		return token{Kind: comma, Line: line}, nil
	case ';':
		lx.nextByte()
		return token{Kind: semi, Line: line}, nil
	case ':':
		lx.nextByte()
		return token{Kind: colon, Line: line}, nil
	case '+':
		lx.nextByte()
		return token{Kind: Plus, Line: line}, nil
	case '-':
		lx.nextByte()
		return token{Kind: Minus, Line: line}, nil
	case '*':
		lx.nextByte()
		return token{Kind: Star, Line: line}, nil
	case '/':
		lx.nextByte()
		return token{Kind: Slash, Line: line}, nil
	case '%':
		lx.nextByte()
		return token{Kind: Percent, Line: line}, nil
	case '=':
		return two('=', Eq, assign), nil
	case '!':
		return two('=', Ne, Not), nil
	case '<':
		return two('=', Le, Lt), nil
	case '>':
		return two('=', Ge, Gt), nil
	case '&':
		lx.nextByte()
		if lx.peekByte() == '&' {
			lx.nextByte()
			return token{Kind: AndAnd, Line: line}, nil
		}
		return token{Kind: amp, Line: line}, nil
	case '|':
		lx.nextByte()
		if lx.peekByte() == '|' {
			lx.nextByte()
			return token{Kind: OrOr, Line: line}, nil
		}
		return token{}, fmt.Errorf("line %d: unexpected '|'", line)
	}
	return token{}, fmt.Errorf("line %d: unexpected character %q", line, string(c))
}

// lex tokenizes the entire input (EOF token included last).
func lex(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == eof {
			return toks, nil
		}
	}
}
