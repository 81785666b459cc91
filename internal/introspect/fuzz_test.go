package introspect

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzFoldedText checks that any input the text parser accepts
// re-encodes canonically: parse -> encode -> parse is a fixpoint.
func FuzzFoldedText(f *testing.F) {
	f.Add([]byte("main 160\nmain:3;foo 100\nmain:3;foo:2;bar 40\n"))
	f.Add([]byte("# comment\n\na 1\na 2\n"))
	f.Add([]byte("x:1.2;y 18446744073709551615\n"))
	f.Add([]byte("a:-3;b 7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := parseFoldedText(data)
		if err != nil {
			return
		}
		enc := EncodeFoldedText(entries)
		back, err := parseFoldedText(enc)
		if err != nil {
			t.Fatalf("canonical text rejected: %v\n%q", err, enc)
		}
		if !reflect.DeepEqual(entries, back) {
			t.Fatalf("not a fixpoint:\n in  %+v\n out %+v", entries, back)
		}
		if again := EncodeFoldedText(back); !bytes.Equal(enc, again) {
			t.Fatalf("re-encode differs:\n%q\n%q", enc, again)
		}
	})
}
