package sim

import "reflect"

// Reflective looks methods up by name and by index, through a Value and
// through a Type.
func Reflective(v any) {
	reflect.ValueOf(v).MethodByName("Clone")
	reflect.ValueOf(v).Method(0)
	reflect.TypeOf(v).MethodByName("Clone")
	reflect.TypeOf(v).Method(0)
}
