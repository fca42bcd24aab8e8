package core

import (
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Prom renders the Prometheus text exposition format (version 0.0.4)
// for both daemons' /metrics handlers.
type Prom struct {
	b strings.Builder
}

// Family starts a metric family (typ "counter" or "gauge").
func (p *Prom) Family(name, typ, help string) {
	p.b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n")
}

// labelEscaper escapes exactly what the text format reads back in a
// label value: backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Sample writes one sample line; labels alternate name and value.
// Integral values print as integers, others in shortest round-trip form.
func (p *Prom) Sample(name string, v float64, labels ...string) {
	p.b.WriteString(name)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		p.b.WriteString(string(sep) + labels[i] + `="`)
		labelEscaper.WriteString(&p.b, labels[i+1])
		p.b.WriteByte('"')
		sep = ','
	}
	if sep == ',' {
		p.b.WriteByte('}')
	}
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		p.b.WriteString(" " + strconv.FormatInt(int64(v), 10) + "\n")
	} else {
		p.b.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
	}
}

// Serve writes the exposition as an HTTP response.
func (p *Prom) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// conflint:ignore best-effort response write; the client owns the socket
	w.Write([]byte(p.b.String()))
}

// FiniteOrNeg clamps the CFC's infinite timeout quantiles (and NaN) to
// -1, the "beyond timeout" marker of the JSON and metrics surfaces.
func FiniteOrNeg(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return x
}
