package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sample is one scrape of a process's /metrics: series text (name
// with its label set, as exposed) to value.
type sample map[string]float64

// parseMetrics reads a Prometheus text exposition.
func parseMetrics(text []byte) sample {
	out := sample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrape reads one process's /metrics.
func scrape(ctx context.Context, client *http.Client, p *proc) (sample, error) {
	body, err := get(ctx, client, "http://"+p.addr+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

// sum adds every series of a family whose label set contains all of
// the given `key="value"` fragments.
func (s sample) sum(family string, labels ...string) float64 {
	var total float64
next:
	for series, v := range s {
		name, rest, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue next
			}
		}
		total += v
	}
	return total
}

// sub returns after − before, series by series; a series absent
// before counts from zero.
func (s sample) sub(before sample) sample {
	out := make(sample, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// add merges another process's scrape into s.
func (s sample) add(o sample) {
	for k, v := range o {
		s[k] += v
	}
}

// mean returns a histogram family's Δsum/Δcount; 0 without samples.
func (s sample) mean(family string, labels ...string) float64 {
	n := s.sum(family+"_count", labels...)
	if n == 0 {
		return 0
	}
	return s.sum(family+"_sum", labels...) / n
}

// get fetches a URL's body.
func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}
