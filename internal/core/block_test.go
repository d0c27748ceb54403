package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestBlockPointerFree pins the layout that keeps the GC out of the
// ordering tree: a block must hold no pointers (so block slabs are noscan)
// and stay 48 bytes. A field that needs a pointer belongs elsewhere, as the
// enqueued values do in the per-leaf value log.
func TestBlockPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
			t.Errorf("%s has pointer-bearing kind %s (%s)", path, typ.Kind(), typ)
		}
	}
	walk("block", reflect.TypeFor[block]())
	if size := unsafe.Sizeof(block{}); size != 48 {
		t.Errorf("unsafe.Sizeof(block{}) = %d, want 48", size)
	}
}
