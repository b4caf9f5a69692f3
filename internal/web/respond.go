package web

// The response path. Every response is encoded into a pooled buffer
// before the status line goes out, so an encoding failure answers 500
// with the error envelope instead of a 200 with an empty body. The
// frame-carrying responses (simulation create/step/choose/get,
// verification create/step/get, functionality) are written by the
// fixed-schema appenders below: the diagram is rendered straight into
// the response as an already-escaped JSON string, and the bytes are
// those encoding/json writes for the same structs with
// SetEscapeHTML(false). Everything else stays on encoding/json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"quantumdd/internal/jsonenc"
	"quantumdd/internal/vis"
)

// maxPooledResp caps the buffers kept for reuse: one huge diagram
// must not pin its response buffer for the life of the process.
const maxPooledResp = 1 << 20

var respBufs = sync.Pool{New: func() any { return new([]byte) }}

func putRespBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledResp {
		*bp = (*bp)[:0]
		respBufs.Put(bp)
	}
}

// send writes one encoded response body with a single Write.
func send(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status is out, so a failed write (the client went away)
	// leaves nothing to answer.
	_, _ = w.Write(body)
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	bp := respBufs.Get().(*[]byte)
	defer putRespBuf(bp)
	buf := bytes.NewBuffer(*bp)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	*bp = buf.Bytes()
	if err != nil {
		s.encodeFailed(w, r, err)
		return
	}
	send(w, status, *bp)
}

// frameAppender is a response that writes its own JSON encoding.
type frameAppender interface {
	appendJSON(dst []byte) ([]byte, error)
}

// writeFrame answers 200 with v's JSON encoding and a trailing newline,
// as writeJSON would, without going through encoding/json.
func (s *Server) writeFrame(w http.ResponseWriter, r *http.Request, v frameAppender) {
	bp := respBufs.Get().(*[]byte)
	defer putRespBuf(bp)
	buf, err := v.appendJSON(*bp)
	*bp = buf
	if err != nil {
		s.encodeFailed(w, r, err)
		return
	}
	*bp = append(buf, '\n')
	send(w, http.StatusOK, *bp)
}

// encodeFailed answers a response that could not be encoded (a NaN or
// ±Inf somewhere in it) with a 500 and the error envelope.
func (s *Server) encodeFailed(w http.ResponseWriter, r *http.Request, err error) {
	s.reqLogger(r).Error("response encoding failed", "path", r.URL.Path, "error", err)
	s.writeErr(w, r, http.StatusInternalServerError, codeInternal, fmt.Errorf("web: internal server error"))
}

// frameResponse is the answer of the create and functionality
// handlers. Its keys are in encoding/json's sorted map order, which
// they were encoded in as maps: "frame" before "id".
type frameResponse struct {
	Frame Frame  `json:"frame"`
	ID    string `json:"id,omitempty"`
}

func (f *frameResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"frame":`...)
	dst, err := f.Frame.appendJSON(dst)
	if err != nil {
		return dst, err
	}
	if f.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = jsonenc.AppendString(dst, f.ID)
	}
	return append(dst, '}'), nil
}

func (sr *stepResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"frame":`...)
	dst, err := sr.Frame.appendJSON(dst)
	if err != nil {
		return dst, err
	}
	dst = appendStringField(dst, `,"event":`, sr.Event)
	dst = appendStringField(dst, `,"error":`, sr.Error)
	if p := sr.Pending; p != nil {
		dst = appendInt(dst, `,"pending":{"opIndex":`, p.OpIndex)
		dst = append(dst, `,"kind":`...)
		dst = jsonenc.AppendString(dst, p.Kind)
		dst = appendInt(dst, `,"qubit":`, p.Qubit)
		if dst, err = appendFloat(dst, `,"p0":`, p.P0); err != nil {
			return dst, err
		}
		if dst, err = appendFloat(dst, `,"p1":`, p.P1); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"atEnd":`...)
	dst = strconv.AppendBool(dst, sr.AtEnd)
	dst = append(dst, `,"atStart":`...)
	dst = strconv.AppendBool(dst, sr.AtStart)
	return append(dst, '}'), nil
}

func (vr *verifyStepResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"frame":`...)
	dst, err := vr.Frame.appendJSON(dst)
	if err != nil {
		return dst, err
	}
	dst = appendStringField(dst, `,"applied":`, vr.Applied)
	dst = appendStringField(dst, `,"error":`, vr.Error)
	dst = append(dst, `,"identity":`...)
	dst = jsonenc.AppendString(dst, vr.Identity)
	dst = appendInt(dst, `,"leftPos":`, vr.LeftPos)
	dst = appendInt(dst, `,"rightPos":`, vr.RightPos)
	return append(dst, '}'), nil
}

// appendJSON writes the frame's fields in declaration order, dropping
// the omitempty ones that are empty. A frame built by the handlers
// carries its graph and renders the SVG here; one built elsewhere
// writes its SVG string.
func (f *Frame) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"svg":`...)
	if f.graph != nil {
		dst = vis.AppendFrameSVGJSON(dst, f.graph, f.style, f.Caption)
	} else {
		dst = jsonenc.AppendString(dst, f.SVG)
	}
	dst = appendInt(dst, `,"nodes":`, f.Nodes)
	dst = appendStringField(dst, `,"caption":`, f.Caption)
	dst = appendInt(dst, `,"pos":`, f.Pos)
	dst = appendInt(dst, `,"total":`, f.Total)
	dst = appendIntsField(dst, `,"classical":`, f.Classical)
	if len(f.Probs) > 0 {
		dst = append(dst, `,"probs":[`...)
		for i, p := range f.Probs {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = jsonenc.AppendFloat(dst, p); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if f.PathCount != 0 {
		dst = append(dst, `,"pathCount":`...)
		dst = strconv.AppendInt(dst, f.PathCount, 10)
	}
	if f.PeakNodes != 0 {
		dst = appendInt(dst, `,"peakNodes":`, f.PeakNodes)
	}
	dst = appendIntsField(dst, `,"levelHist":`, f.LevelHist)
	if e := f.Engine; e != nil {
		dst = appendInt(dst, `,"engine":{"liveNodes":`, e.LiveNodes)
		var err error
		if dst, err = appendFloat(dst, `,"uniqueLoadV":`, e.UniqueLoadV); err != nil {
			return dst, err
		}
		if dst, err = appendFloat(dst, `,"uniqueLoadM":`, e.UniqueLoadM); err != nil {
			return dst, err
		}
		dst = appendUint(dst, `,"utCollisions":`, e.UTCollisions)
		dst = appendUint(dst, `,"ctStores":`, e.CTStores)
		dst = appendUint(dst, `,"ctEvictions":`, e.CTEvictions)
		dst = appendUint(dst, `,"recycled":`, e.Recycled)
		dst = appendInt(dst, `,"freeNodes":`, e.FreeNodes)
		dst = appendUint(dst, `,"gcRuns":`, e.GCRuns)
		dst = appendUint(dst, `,"applyLookups":`, e.ApplyLookups)
		dst = appendUint(dst, `,"applyHits":`, e.ApplyHits)
		dst = appendUint(dst, `,"applyEvictions":`, e.ApplyEvictions)
		dst = appendUint(dst, `,"gatesFused":`, e.GatesFused)
		dst = appendUint(dst, `,"gateDDCacheHits":`, e.GateDDCacheHits)
		dst = appendUint(dst, `,"applyMLookups":`, e.ApplyMLookups)
		dst = appendUint(dst, `,"applyMHits":`, e.ApplyMHits)
		dst = appendUint(dst, `,"applyMEvictions":`, e.ApplyMEvictions)
		dst = appendUint(dst, `,"applyMIdentitySkips":`, e.ApplyMIdentitySkips)
		dst = appendUint(dst, `,"kernelOps":`, e.KernelOps)
		dst = appendUint(dst, `,"genericOps":`, e.GenericOps)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

func appendInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendUint(dst []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendFloat(dst []byte, key string, v float64) ([]byte, error) {
	return jsonenc.AppendFloat(append(dst, key...), v)
}

// appendStringField appends an omitempty string field.
func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	dst = append(dst, key...)
	return jsonenc.AppendString(dst, v)
}

// appendIntsField appends an omitempty []int field.
func appendIntsField(dst []byte, key string, v []int) []byte {
	if len(v) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, x := range v {
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}
