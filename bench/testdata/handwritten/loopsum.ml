func main(a, b) {
	var s = 0;
	for (var i = 1; i <= a; i = i + 1) {
		s = s + i * b;
	}
	return s + a / b + a % b;
}
