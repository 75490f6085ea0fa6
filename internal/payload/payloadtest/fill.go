// Package payloadtest checks that a hand-written payload layout covers
// every field of the struct it stores. Fill gives every field a
// distinct non-zero value by reflection, so a field the layout forgets
// (or two it swaps) reads back different and fails a round trip; a
// field added to the struct later fails the same way until the layout
// writes it.
package payloadtest

import (
	"fmt"
	"reflect"
)

// Slices selects how Fill shapes the slices and pointers it meets.
type Slices int

const (
	// Full gives every slice two elements and every pointer a value.
	Full Slices = iota
	// Empty gives every slice zero elements (non-nil) and every pointer
	// a value.
	Empty
	// Nil leaves every slice and pointer nil.
	Nil
)

func (s Slices) String() string {
	return [...]string{"full", "empty", "nil"}[s]
}

// maxDepth bounds how many pointers deep Fill allocates, so recursive
// types (a predictor state holding its components) stay finite.
const maxDepth = 3

// Fill sets every field reachable from ptr, a pointer to a struct, to a
// distinct non-zero value: integers and floats from one counter, bools
// true, strings named after the counter. Slices and pointers follow
// shape. It panics on a kind it does not know, so a new field type
// fails loudly instead of staying zero.
func Fill(ptr any, shape Slices) {
	f := filler{shape: shape}
	f.fill(reflect.ValueOf(ptr).Elem(), 0)
}

type filler struct {
	shape Slices
	n     int
}

func (f *filler) next() int {
	f.n++
	return f.n
}

func (f *filler) fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i), depth)
		}
	case reflect.Pointer:
		if f.shape == Nil || depth >= maxDepth {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), depth+1)
	case reflect.Slice:
		switch f.shape {
		case Nil:
			v.SetZero()
		case Empty:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < v.Len(); i++ {
				f.fill(v.Index(i), depth)
			}
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := int64(f.next())
		if n%2 == 0 {
			n = -n << 20 // negative and multi-byte
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.next()) * 0x9E3779B97F4A7C15) // distinct bit patterns, wrapped to the width
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next()))
	default:
		panic(fmt.Sprintf("payloadtest: cannot fill %s", v.Type()))
	}
}
