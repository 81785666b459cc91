// Package source implements the MiniLang frontend: a small C-like language
// (int64 scalars, globals and global arrays, functions, if/else, while/for,
// switch, logical operators) used as the "application source code" of the
// CSSPGO reproduction. Line numbers are tracked faithfully so that
// debug-info-based profile correlation and source-drift experiments behave
// like they do against real source.
package source

import "fmt"

// Kind enumerates token kinds.
type Kind uint8

// Token kinds.
const (
	eof Kind = iota
	ident
	num
	// Keywords.
	kwFunc
	kwGlobal
	kwVar
	kwIf
	kwElse
	kwWhile
	kwFor
	kwSwitch
	kwCase
	kwDefault
	kwReturn
	kwBreak
	kwContinue
	// Punctuation and operators.
	lParen
	rParen
	lBrace
	rBrace
	lBrack
	rBrack
	comma
	semi
	colon
	assign
	Plus
	Minus
	Star
	Slash
	Percent
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	AndAnd
	OrOr
	Not
	amp // & (address-of-function)
	kwICall
)

var kindNames = map[Kind]string{
	eof: "EOF", ident: "identifier", num: "number",
	kwFunc: "func", kwGlobal: "global", kwVar: "var", kwIf: "if", kwElse: "else",
	kwWhile: "while", kwFor: "for", kwSwitch: "switch", kwCase: "case",
	kwDefault: "default", kwReturn: "return", kwBreak: "break", kwContinue: "continue",
	lParen: "(", rParen: ")", lBrace: "{", rBrace: "}", lBrack: "[", rBrack: "]",
	comma: ",", semi: ";", colon: ":", assign: "=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	AndAnd: "&&", OrOr: "||", Not: "!", amp: "&", kwICall: "icall",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", k)
}

var keywords = map[string]Kind{
	"func": kwFunc, "global": kwGlobal, "var": kwVar, "if": kwIf, "else": kwElse,
	"while": kwWhile, "for": kwFor, "switch": kwSwitch, "case": kwCase,
	"default": kwDefault, "return": kwReturn, "break": kwBreak, "continue": kwContinue,
	"icall": kwICall,
}

// token is a lexed token with its source line.
type token struct {
	Kind Kind
	Text string
	Num  int64
	Line int
}

func (t token) String() string {
	switch t.Kind {
	case ident:
		return fmt.Sprintf("ident(%s)", t.Text)
	case num:
		return fmt.Sprintf("num(%d)", t.Num)
	default:
		return t.Kind.String()
	}
}
