// Command tool is a main package: the analyzer reports none of its
// declarations, but does report its reflective method lookup.
package main

import "reflect"

func helper() {}

func main() { _, _ = reflect.TypeOf(helper).MethodByName("Run") }
