module github.com/fg-go/fg/benchmark

go 1.22

require github.com/fg-go/fg v0.0.0

replace github.com/fg-go/fg => ../
