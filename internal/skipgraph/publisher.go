package skipgraph

// Publisher is a shim owed to the frozen benchmark harness (benchmark/ may
// not change alongside library code): its skipgraph rung still calls
// NewPublisher, Current and Publish and reads through the result. Snapshot
// publication is gone — serving reads the live graph between adjustments —
// so all three hand back the live *Graph. The next benchmark PR deletes the
// rung's calls and this file with them.
type Publisher struct{ g *Graph }

func NewPublisher(g *Graph) *Publisher { return &Publisher{g} }
func (p *Publisher) Current() *Graph   { return p.g }
func (p *Publisher) Publish() *Graph   { return p.g }
