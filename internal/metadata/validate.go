package metadata

import (
	"fmt"

	"datavirt/internal/schema"
)

// pathTo returns the dataset nodes from the layout root down to
// target, or nil when target is not in the layout.
func (d *Descriptor) pathTo(target *DatasetNode) []*DatasetNode {
	var walk func(n *DatasetNode, path []*DatasetNode) []*DatasetNode
	walk = func(n *DatasetNode, path []*DatasetNode) []*DatasetNode {
		path = append(path, n)
		if n == target {
			return path
		}
		for _, c := range n.Children {
			if p := walk(c, path); p != nil {
				return p
			}
		}
		return nil
	}
	if d.Layout == nil {
		return nil
	}
	return walk(d.Layout, nil)
}

// EffectiveIndexAttrs resolves the DATAINDEX attribute list visible at
// target: its own if declared, otherwise the nearest ancestor's.
func (d *Descriptor) EffectiveIndexAttrs(target *DatasetNode) []string {
	var attrs []string
	for _, n := range d.pathTo(target) {
		if len(n.IndexAttrs) > 0 {
			attrs = n.IndexAttrs
		}
	}
	return attrs
}

// EffectiveByteOrder resolves the byte order in force at target: its
// own BYTEORDER if declared, otherwise the nearest ancestor's, with
// LITTLE as the overall default.
func (d *Descriptor) EffectiveByteOrder(target *DatasetNode) string {
	order := "LITTLE"
	for _, n := range d.pathTo(target) {
		if n.ByteOrder != "" {
			order = n.ByteOrder
		}
	}
	return order
}

// EffectiveSchema resolves the schema a node realizes, walking from the
// root. It returns the schema plus the DATATYPE extras accumulated on
// the path. The node must be reachable from d.Layout.
func (d *Descriptor) EffectiveSchema(target *DatasetNode) (*schema.Schema, []schema.Attribute, error) {
	if d.Layout == nil {
		return nil, nil, fmt.Errorf("metadata: descriptor has no layout")
	}
	path := d.pathTo(target)
	if path == nil {
		return nil, nil, fmt.Errorf("metadata: dataset %q not found in layout", target.Name)
	}
	var typeName string
	var extras []schema.Attribute
	for _, n := range path {
		if n.TypeName != "" {
			typeName = n.TypeName
		}
		extras = append(extras, n.ExtraAttrs...)
	}
	s := d.Schema(typeName)
	if s == nil {
		return nil, nil, fmt.Errorf("metadata: dataset %q has no resolvable schema", target.Name)
	}
	return s, extras, nil
}

// LeafKinds returns the attribute table visible at node: its effective
// schema's attributes plus the DATATYPE extras on the path to it, a
// later declaration overriding an earlier one.
func (d *Descriptor) LeafKinds(node *DatasetNode) (map[string]schema.Kind, error) {
	sch, extras, err := d.EffectiveSchema(node)
	if err != nil {
		return nil, err
	}
	kinds := make(map[string]schema.Kind, sch.NumAttrs()+len(extras))
	for _, a := range sch.Attrs() {
		kinds[a.Name] = a.Kind
	}
	for _, a := range extras {
		kinds[a.Name] = a.Kind
	}
	return kinds, nil
}
