package lake

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/capi"
)

// Register mounts the lake's read-only HTTP surface on mux: a blob by
// hash and a key's hash, both GET only (see the endpoint table in
// package capi's doc). Handlers answer 503 + Retry-After while the store
// is unavailable (Fail), which clients treat as a miss.
func (s *Store) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/artifacts/", s.handleArtifact)
	mux.HandleFunc("/v1/lake/keys/", s.handleKey)
}

// refuse writes the reply for a request the read-only surface does not
// serve — any method but GET, or the store unavailable — and reports
// whether the request must stop. A method pattern would not do: the
// mux lets a GET route answer HEAD.
func (s *Store) refuse(w http.ResponseWriter, r *http.Request) bool {
	switch {
	case r.Method != http.MethodGet:
		capi.WriteError(w, http.StatusMethodNotAllowed, capi.CodeBadRequest, "method %s not allowed", r.Method)
	case s.unavailable():
		capi.WriteUnavailable(w, time.Second, "artifact lake unavailable")
	default:
		return false
	}
	return true
}

func (s *Store) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if s.refuse(w, r) {
		return
	}
	hash := strings.TrimPrefix(r.URL.Path, "/v1/artifacts/")
	if !validHash(hash) {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "malformed blob hash %q", hash)
		return
	}
	start := time.Now()
	data, err := s.Get(hash)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	s.met().ObserveFetch(time.Since(start))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Store) handleKey(w http.ResponseWriter, r *http.Request) {
	if s.refuse(w, r) {
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/lake/keys/")
	if key == "" {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "empty lake key")
		return
	}
	hash, ok := s.Resolve(key)
	if !ok {
		capi.WriteError(w, http.StatusNotFound, capi.CodeNotFound, "no artifact for key %q", key)
		return
	}
	capi.WriteJSON(w, capi.LakeKeyReply{Hash: hash})
}

func writeStoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnavailable):
		capi.WriteUnavailable(w, time.Second, "artifact lake unavailable")
	case errors.Is(err, ErrNotFound):
		capi.WriteError(w, http.StatusNotFound, capi.CodeNotFound, "%v", err)
	case errors.Is(err, ErrBadRequest):
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "%v", err)
	default:
		capi.WriteError(w, http.StatusInternalServerError, capi.CodeInternal, "%v", err)
	}
}
