package main

import "fixture/internal/a"

func main() {
	a.FromCmd()
	var i a.Iface = a.Live{}
	i.M()
	a.Wrap(nil)
	a.NewRand()
	a.Kernel()
}
