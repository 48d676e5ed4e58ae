package b

import "fixture/internal/a"

func Run() { a.FromBench() }
