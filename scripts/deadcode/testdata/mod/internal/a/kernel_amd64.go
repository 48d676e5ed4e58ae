//go:build amd64

package a

func Kernel() int { return 1 }
