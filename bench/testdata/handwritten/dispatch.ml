global tab[4];
global calls;

func add3(x, y) { return x + y + 3; }
func mul2(x, y) { return x * y * 2; }
func sub(x, y) { return x - y; }

func pick(k) {
	switch (k) {
	case 0: return &add3;
	case 1: return &mul2;
	default: return &sub;
	}
	return &sub;
}

func main(a, b) {
	calls = calls + 1;
	var k = a % 3;
	tab[k] = tab[k] + b;
	var h = pick(k);
	return icall(h, tab[k], a) + calls;
}
