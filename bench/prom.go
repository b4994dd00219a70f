package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promText []promSample

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// parseProm reads the subset of the text format the daemon's registry
// writes: `name{k="v",...} value` lines, label values without escapes.
func parseProm(text string) promText {
	var out promText
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[open+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:open]
		}
		out = append(out, s)
	}
	return out
}

func (p promText) match(name string, want map[string]string) []promSample {
	var out []promSample
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for k, v := range want {
			if s.labels[k] != v {
				continue next
			}
		}
		out = append(out, s)
	}
	return out
}

// sum adds every series of name whose labels include want.
func (p promText) sum(name string, want map[string]string) float64 {
	total := 0.0
	for _, s := range p.match(name, want) {
		total += s.value
	}
	return total
}

// quantile estimates the q-quantile of the histogram `name`, merging every
// series whose labels include want, by linear interpolation inside the
// bucket the rank falls in (what histogram_quantile does). Zero when empty.
func (p promText) quantile(name string, want map[string]string, q float64) float64 {
	byBound := map[float64]float64{}
	for _, s := range p.match(name+"_bucket", want) {
		le, err := strconv.ParseFloat(strings.Replace(s.labels["le"], "+Inf", "Inf", 1), 64)
		if err != nil {
			continue
		}
		byBound[le] += s.value
	}
	bounds := make([]float64, 0, len(byBound))
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || byBound[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * byBound[bounds[len(bounds)-1]]
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		cum := byBound[b]
		if cum >= rank {
			if math.IsInf(b, 1) || cum == prevCum {
				return prevBound
			}
			return prevBound + (b-prevBound)*(rank-prevCum)/(cum-prevCum)
		}
		prevBound, prevCum = b, cum
	}
	return prevBound
}
