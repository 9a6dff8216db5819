// Command tool is a main package, which the analyzer skips.
package main

func helper() {}

func main() {}
