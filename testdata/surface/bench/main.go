package main

import "fixture/internal/lib"

func main() { lib.ForBench() }
