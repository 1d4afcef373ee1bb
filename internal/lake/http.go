package lake

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"repro/internal/capi"
)

// Register mounts the lake's read-only HTTP surface on mux: GET
// /v1/lake/{key...} answers the bytes bound to key, verified, with their
// sha256 in the ETag header (see the endpoint table in package capi's
// doc). Any other method is refused with 405 — a method pattern would not
// do, the mux lets a GET route answer HEAD. While the store is
// unavailable (Fail) the endpoint answers 503 + Retry-After, which
// clients treat as a miss.
func (s *Store) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/lake/", s.handleGet)
}

func (s *Store) handleGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		capi.WriteError(w, http.StatusMethodNotAllowed, capi.CodeBadRequest, "method %s not allowed", r.Method)
		return
	}
	hash, data, err := s.lookup(strings.TrimPrefix(r.URL.Path, "/v1/lake/"))
	switch {
	case err == nil:
		capi.WriteBlob(w, hash, data)
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
