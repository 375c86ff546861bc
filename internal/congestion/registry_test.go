package congestion

import (
	"reflect"
	"strings"
	"testing"
)

// TestFieldsFollowParams pins Fields to Params: bit i is the i-th
// optional field (every field but Kind and Custom), String names it by
// its json tag, and SetFields reports that bit alone when only that
// field is set.
func TestFieldsFollowParams(t *testing.T) {
	typ := reflect.TypeOf(Params{})
	bit := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Kind" || f.Name == "Custom" {
			continue
		}
		field := Fields(1) << bit
		bit++
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); field.String() != name {
			t.Errorf("Params.%s: bit %d is named %q, want its wire name %q", f.Name, bit-1, field, name)
		}
		var p Params
		v := reflect.ValueOf(&p).Elem().Field(i)
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(1)
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.String:
			v.SetString("last")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("Params.%s: no test value for a %s", f.Name, v.Kind())
		}
		if got := p.SetFields(); got != field {
			t.Errorf("Params.%s set: SetFields = %s, want %s", f.Name, got, field)
		}
	}
	if bit != len(fieldNames) {
		t.Errorf("Params has %d optional fields, fieldNames %d", bit, len(fieldNames))
	}
	if got := (StaticThresholdField | StalenessField).String(); got != "static_threshold, staleness" {
		t.Errorf("String of two fields = %q", got)
	}
}
