package service

import (
	"errors"
	"net/http"

	"knncost/internal/geom"
	"knncost/internal/store"
)

// MutateRequest is the body of POST and DELETE /relations/{name}/points, as
// clients marshal it; the server decodes the bytes with decodeMutation.
type MutateRequest struct {
	// Points are the coordinates to append or delete, each [x, y]. DELETE
	// removes every stored occurrence of each coordinate.
	Points [][2]float64 `json:"points"`
}

// handleAppendPoints streams points into a live relation. The write is
// WAL-durable when the response returns; the published snapshot absorbs it
// at the next compaction (see the delta_* fields of the response).
func (s *Server) handleAppendPoints(w http.ResponseWriter, r *http.Request) {
	s.handleMutatePoints(w, r, s.store.Append)
}

// handleDeletePoints removes every occurrence of the given coordinates
// from a live relation, with the same durability contract as append.
func (s *Server) handleDeletePoints(w http.ResponseWriter, r *http.Request) {
	s.handleMutatePoints(w, r, s.store.Delete)
}

func (s *Server) handleMutatePoints(w http.ResponseWriter, r *http.Request, apply func(string, []geom.Point) (store.RelationStatus, error)) {
	body, ok := readJSONBody(w, r, MaxRegisterBody, "reading mutation")
	if !ok {
		return
	}
	pts, err := decodeMutation(body)
	if err != nil {
		badRequest(w, "decoding mutation: %v", err)
		return
	}
	if len(pts) == 0 {
		badRequest(w, "mutation needs at least one point")
		return
	}
	st, err := apply(r.PathValue("name"), pts)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrUnknownRelation):
			notFound(w, "%v", err)
		case errors.Is(err, store.ErrClosed):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			badRequest(w, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, infoFromStatus(st))
}
