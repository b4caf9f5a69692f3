package vis

import (
	"fmt"
	"regexp"
	"strings"
)

// AnimationSVG combines per-step SVG frames (as produced by
// dddraw -animate) into one self-contained SVG that cycles
// through them with SMIL timing — the tool's slide show as a single
// shareable file. frameDur is the display time per frame in seconds.
func AnimationSVG(frames []string, frameDur float64) (string, error) {
	if len(frames) == 0 {
		return "", fmt.Errorf("vis: no frames to animate")
	}
	if frameDur <= 0 {
		frameDur = 1
	}
	// Determine the canvas: use the maximum frame dimensions.
	var maxW, maxH float64
	dims := make([][2]float64, len(frames))
	for i, f := range frames {
		w, h, err := svgSize(f)
		if err != nil {
			return "", fmt.Errorf("vis: frame %d: %w", i, err)
		}
		dims[i] = [2]float64{w, h}
		if w > maxW {
			maxW = w
		}
		if h > maxH {
			maxH = h
		}
	}
	total := frameDur * float64(len(frames))
	var b strings.Builder
	fmt.Fprintf(&b, "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", maxW, maxH, maxW, maxH)
	b.WriteString("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n")
	for i, f := range frames {
		attrs, inner, err := svgInner(f)
		if err != nil {
			return "", fmt.Errorf("vis: frame %d: %w", i, err)
		}
		begin := frameDur * float64(i)
		// The group takes over the frame root's presentation attributes,
		// which the frame's elements inherit.
		fmt.Fprintf(&b, "<g visibility=\"hidden\"%s>\n", attrs)
		// Loop: each frame shows for frameDur within a total-length cycle.
		fmt.Fprintf(&b, "<set attributeName=\"visibility\" to=\"visible\" begin=\"%.2fs;anim0.begin+%.2fs\" dur=\"%.2fs\"/>\n",
			begin, begin, frameDur)
		b.WriteString(inner)
		b.WriteString("</g>\n")
	}
	// An invisible driver animation defining the cycle length.
	fmt.Fprintf(&b, "<rect width=\"0\" height=\"0\"><animate id=\"anim0\" attributeName=\"x\" from=\"0\" to=\"0\" begin=\"0s;anim0.end\" dur=\"%.2fs\"/></rect>\n", total)
	b.WriteString("</svg>\n")
	return b.String(), nil
}

var (
	svgOpenRe = regexp.MustCompile(`<svg[^>]*\swidth=["']([0-9.]+)["'][^>]*\sheight=["']([0-9.]+)["']`)
	svgAttrRe = regexp.MustCompile(`\s([\w:-]+)=(?:"[^"]*"|'[^']*')`)
)

func svgSize(svg string) (w, h float64, err error) {
	m := svgOpenRe.FindStringSubmatch(svg)
	if m == nil {
		return 0, 0, fmt.Errorf("no svg dimensions found")
	}
	if _, err := fmt.Sscanf(m[1], "%f", &w); err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(m[2], "%f", &h); err != nil {
		return 0, 0, err
	}
	return w, h, nil
}

// svgInner extracts the content between the <svg> open tag and the
// closing </svg>, and the attributes of the open tag other than the
// namespace, size and viewBox, each with its leading space and quotes.
func svgInner(svg string) (attrs, inner string, err error) {
	open := strings.Index(svg, ">")
	if open < 0 {
		return "", "", fmt.Errorf("malformed svg")
	}
	close := strings.LastIndex(svg, "</svg>")
	if close < 0 || close <= open {
		return "", "", fmt.Errorf("malformed svg")
	}
	var kept strings.Builder
	for _, m := range svgAttrRe.FindAllStringSubmatch(svg[:open], -1) {
		switch name := m[1]; {
		case name == "width", name == "height", name == "viewBox",
			name == "xmlns", strings.HasPrefix(name, "xmlns:"):
		default:
			kept.WriteString(m[0])
		}
	}
	return kept.String(), svg[open+1 : close], nil
}
