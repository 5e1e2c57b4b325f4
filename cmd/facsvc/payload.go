package main

// Request/response encoding for the factorization service. Two encodings
// are supported on the same endpoints, chosen by Content-Type:
//
//   - application/json: {"rows","cols","data"(column-major),"options",...}
//   - application/octet-stream: raw column-major float64 little-endian
//     matrix bytes, with shape and options in query parameters — the
//     zero-copy path for numeric clients.
//
// Responses mirror the request encoding. See doc/SERVICE.md for the full
// wire contract.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/factor"
)

// maxBodyBytes bounds request bodies (JSON or binary): 64 MiB holds a
// 2896x2896 float64 matrix, far past the service's intended small-request
// workload.
const maxBodyBytes = 64 << 20

// jsonOptions is the wire form of the numeric options a request may set.
// Scheduling-only knobs (workers, tracing) belong to the server, not the
// request.
type jsonOptions struct {
	BlockSize       int     `json:"block_size,omitempty"`
	PanelThreads    int     `json:"panel_threads,omitempty"`
	Tree            string  `json:"tree,omitempty"` // "binary" (default), "flat" or "hybrid"
	StructuredTree  bool    `json:"structured_tree,omitempty"`
	GrowthThreshold float64 `json:"growth_threshold,omitempty"`
}

// jsonRequest is the JSON request body for /v1/lu and /v1/qr.
type jsonRequest struct {
	Rows      int         `json:"rows"`
	Cols      int         `json:"cols"`
	Data      []float64   `json:"data"` // column-major, rows*cols entries
	Options   jsonOptions `json:"options"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
	Cache     bool        `json:"cache,omitempty"`
	// Verify arms ABFT checksum verification for this request (see
	// factor.Options.Verify); the server may also force it on globally.
	Verify bool `json:"verify,omitempty"`
}

// jsonLUResponse is the JSON response for /v1/lu: the packed factors (L
// unit-lower under U, column-major) and the permutation vector.
type jsonLUResponse struct {
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Factors []float64 `json:"factors"`
	Perm    []int     `json:"perm"`
	Cache   string    `json:"cache"` // "hit", "miss" or "off"
}

// jsonQRResponse is the JSON response for /v1/qr: the upper-triangular R.
type jsonQRResponse struct {
	Rows  int       `json:"rows"`
	Cols  int       `json:"cols"`
	R     []float64 `json:"r"`
	Cache string    `json:"cache"`
}

// request is a decoded factorization request, encoding-independent.
type request struct {
	a       *factor.Matrix
	opt     factor.Options
	timeout time.Duration
	cache   bool
	binary  bool
}

// decodeError marks a request the client got wrong (HTTP 400), as opposed
// to a server-side failure.
type decodeError struct{ msg string }

func (e *decodeError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &decodeError{msg: fmt.Sprintf(format, args...)}
}

// parseTree maps the wire tree name to the factor enum.
func parseTree(s string) (factor.Tree, error) {
	switch strings.ToLower(s) {
	case "", "binary":
		return factor.Binary, nil
	case "flat":
		return factor.Flat, nil
	case "hybrid":
		return factor.Hybrid, nil
	default:
		return 0, badRequest("unknown tree %q (want binary, flat or hybrid)", s)
	}
}

// requestDefaults are the service's flag-set request defaults, applied to
// every request at decode in either encoding.
type requestDefaults struct {
	growth float64 // GrowthThreshold of requests that leave it 0
	verify bool    // Verify forced on
}

// decodeRequest reads one factorization request in either encoding and
// applies the service defaults d to its options.
func decodeRequest(r *http.Request, d requestDefaults) (*request, error) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	decode := decodeJSON
	switch strings.TrimSpace(ct) {
	case "application/octet-stream":
		decode = decodeBinary
	case "", "application/json":
	default:
		return nil, badRequest("unsupported Content-Type %q", ct)
	}
	req, err := decode(r)
	if err != nil {
		return nil, err
	}
	if req.opt.GrowthThreshold == 0 {
		req.opt.GrowthThreshold = d.growth
	}
	req.opt.Verify = req.opt.Verify || d.verify
	return req, nil
}

func decodeJSON(r *http.Request) (*request, error) {
	var jr jsonRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jr); err != nil {
		return nil, badRequest("invalid JSON body: %v", err)
	}
	if jr.Rows <= 0 || jr.Cols <= 0 {
		return nil, badRequest("rows and cols must be positive, got %dx%d", jr.Rows, jr.Cols)
	}
	// Compared by division: rows*cols can overflow int.
	if len(jr.Data)%jr.Cols != 0 || len(jr.Data)/jr.Cols != jr.Rows {
		return nil, badRequest("data length %d != rows*cols for a %dx%d matrix", len(jr.Data), jr.Rows, jr.Cols)
	}
	tree, err := parseTree(jr.Options.Tree)
	if err != nil {
		return nil, err
	}
	return &request{
		a: factor.FromColMajor(jr.Rows, jr.Cols, jr.Rows, jr.Data),
		opt: factor.Options{
			BlockSize:       jr.Options.BlockSize,
			PanelThreads:    jr.Options.PanelThreads,
			Tree:            tree,
			StructuredTree:  jr.Options.StructuredTree,
			GrowthThreshold: jr.Options.GrowthThreshold,
			Verify:          jr.Verify,
		},
		timeout: time.Duration(jr.TimeoutMS) * time.Millisecond,
		cache:   jr.Cache,
	}, nil
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badRequest("query parameter %s=%q is not an integer", name, s)
	}
	return v, nil
}

func decodeBinary(r *http.Request) (*request, error) {
	rows, err := queryInt(r, "rows")
	if err != nil {
		return nil, err
	}
	cols, err := queryInt(r, "cols")
	if err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, badRequest("binary requests need positive rows and cols query parameters, got %dx%d", rows, cols)
	}
	// Bounded by division before multiplying: rows*cols*8 can overflow int.
	if rows > maxBodyBytes/8/cols {
		return nil, badRequest("matrix %dx%d exceeds the %d-byte body limit", rows, cols, maxBodyBytes)
	}
	want := rows * cols * 8
	buf, err := io.ReadAll(io.LimitReader(r.Body, int64(want)+1))
	if err != nil {
		return nil, badRequest("reading matrix bytes: %v", err)
	}
	if len(buf) != want {
		return nil, badRequest("body is %d bytes, want rows*cols*8 = %d", len(buf), want)
	}
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	block, err := queryInt(r, "block")
	if err != nil {
		return nil, err
	}
	panels, err := queryInt(r, "panels")
	if err != nil {
		return nil, err
	}
	tree, err := parseTree(r.URL.Query().Get("tree"))
	if err != nil {
		return nil, err
	}
	var growth float64
	if s := r.URL.Query().Get("growth"); s != "" {
		growth, err = strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, badRequest("query parameter growth=%q is not a number", s)
		}
	}
	timeoutMS, err := queryInt(r, "timeout_ms")
	if err != nil {
		return nil, err
	}
	return &request{
		a: factor.FromColMajor(rows, cols, rows, data),
		opt: factor.Options{
			BlockSize:       block,
			PanelThreads:    panels,
			Tree:            tree,
			StructuredTree:  r.URL.Query().Get("structured") == "1",
			GrowthThreshold: growth,
			Verify:          r.URL.Query().Get("verify") == "1",
		},
		timeout: time.Duration(timeoutMS) * time.Millisecond,
		cache:   r.URL.Query().Get("cache") == "1",
		binary:  true,
	}, nil
}

// matrixBytes serializes m column-major as little-endian float64s,
// compacting away any stride padding.
func matrixBytes(m *factor.Matrix) []byte {
	out := make([]byte, 8*m.Rows*m.Cols)
	i := 0
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.Stride : j*m.Stride+m.Rows]
		for _, v := range col {
			binary.LittleEndian.PutUint64(out[i:], math.Float64bits(v))
			i += 8
		}
	}
	return out
}

// matrixValues flattens m column-major into a []float64 for JSON.
func matrixValues(m *factor.Matrix) []float64 {
	out := make([]float64, 0, m.Rows*m.Cols)
	for j := 0; j < m.Cols; j++ {
		out = append(out, m.Data[j*m.Stride:j*m.Stride+m.Rows]...)
	}
	return out
}

// writeLUResponse writes the factors in the request's encoding. Binary
// responses carry the permutation in the X-Permutation header
// (space-separated) and the shape in X-Matrix-Rows/X-Matrix-Cols.
func writeLUResponse(w http.ResponseWriter, req *request, f *factor.LUFactorization, cacheState string) {
	factors := f.Factors()
	perm := f.PermutationVector()
	w.Header().Set("X-Cache", cacheState)
	if req.binary {
		ps := make([]string, len(perm))
		for i, p := range perm {
			ps[i] = strconv.Itoa(p)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Matrix-Rows", strconv.Itoa(factors.Rows))
		w.Header().Set("X-Matrix-Cols", strconv.Itoa(factors.Cols))
		w.Header().Set("X-Permutation", strings.Join(ps, " "))
		w.WriteHeader(http.StatusOK)
		w.Write(matrixBytes(factors))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(jsonLUResponse{
		Rows:    factors.Rows,
		Cols:    factors.Cols,
		Factors: matrixValues(factors),
		Perm:    perm,
		Cache:   cacheState,
	})
}

// writeQRResponse writes R in the request's encoding.
func writeQRResponse(w http.ResponseWriter, req *request, f *factor.QRFactorization, cacheState string) {
	rMat := f.R()
	w.Header().Set("X-Cache", cacheState)
	if req.binary {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Matrix-Rows", strconv.Itoa(rMat.Rows))
		w.Header().Set("X-Matrix-Cols", strconv.Itoa(rMat.Cols))
		w.WriteHeader(http.StatusOK)
		w.Write(matrixBytes(rMat))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(jsonQRResponse{
		Rows:  rMat.Rows,
		Cols:  rMat.Cols,
		R:     matrixValues(rMat),
		Cache: cacheState,
	})
}
