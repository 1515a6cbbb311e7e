package workload

import (
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// The six benchmarks that do not require coherence (paper Fig 12,
// right cluster): write-once outputs, CTA-private or read-only shared
// working sets. They are functionally correct even under the
// non-coherent L1 (Baseline-w/L1), which the tests assert.

// CCP approximates cutoff Coulombic potential: compute-bound threads
// reading a small read-only lattice (high L1 reuse) and writing one
// output each.
func CCP() *Workload {
	return &Workload{
		Name:        "CCP",
		Description: "compute-bound lattice summation (cutcp-style), read-only sharing",
		Build: func(scale int) *Instance {
			const latticeWords = 512
			loadsPerThread := 8
			ctas, warps := ctaScale(scale), 2
			total := ctas * warps * gpu.WarpWidth

			lay := newLayout(0x800000)
			latBase := lay.array(latticeWords)
			outBase := lay.array(total)

			r := newRNG(131)
			lattice := make([]uint32, latticeWords)
			for i := range lattice {
				lattice[i] = uint32(r.intn(1 << 12))
			}
			want := make([]uint32, total)
			for t := 0; t < total; t++ {
				var acc uint32
				for i := 0; i < loadsPerThread*scale; i++ {
					acc += lattice[(t*7+i*13)%latticeWords] * uint32(i+1)
				}
				want[t] = acc
			}

			kernel := &gpu.Kernel{
				Name: "CCP", CTAs: ctas, WarpsPerCTA: warps, Regs: 3,
				Init: func(store *mem.Store) { writeArray(store, latBase, lattice) },
				ProgramFor: func(w *gpu.Warp) gpu.Program {
					return &gpu.LoopProgram{
						Iters: loadsPerThread * scale,
						Body: func(i int) []*gpu.Instr {
							return []*gpu.Instr{
								gpu.Load(1, always(func(t *gpu.Thread) mem.Addr {
									return wordAddr(latBase, (t.GTID*7+i*13)%latticeWords)
								})),
								gpu.Comp(12), // the "cutoff kernel" arithmetic
								gpu.ALU(func(t *gpu.Thread) {
									if i == 0 {
										t.Regs[0] = 0
									}
									t.Regs[0] += t.Regs[1] * uint32(i+1)
								}, 0, 1),
							}
						},
					}
				},
			}
			kernel.ProgramFor = withEpilogue(kernel.ProgramFor,
				gpu.Store(always(func(t *gpu.Thread) mem.Addr {
					return wordAddr(outBase, t.GTID)
				}), func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0))

			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("CCP out", readBack(read, outBase, total), want)
				},
			}
		},
	}
}

// GE is per-CTA-tile integer Gaussian elimination: each step, every
// column thread reads the pivot row's and its own row's column-k
// elements (written by other threads of the same CTA in earlier
// steps), so the CTA's columns communicate through the L1 with
// fence+barrier ordering — intra-SM sharing only.
func GE() *Workload {
	return &Workload{
		Name:        "GE",
		Description: "per-CTA tile integer Gaussian elimination (intra-CTA column sharing)",
		Build: func(scale int) *Instance {
			rows := 6 + 2*scale
			ctas, warps := ctaScale(scale), 1
			cols := warps * gpu.WarpWidth
			tile := rows * cols
			// Step k reads column k, so a tile taller than it is wide
			// runs out of pivot columns before it runs out of rows.
			steps := min(rows-1, cols)

			lay := newLayout(0xA00000)
			aBase := lay.array(ctas * tile)

			r := newRNG(139)
			a := make([]uint32, ctas*tile)
			for i := range a {
				a[i] = uint32(r.intn(1 << 8))
			}
			// Sequential reference: row_i += A[i][k] * row_k for i > k.
			want := make([]uint32, len(a))
			copy(want, a)
			for c := 0; c < ctas; c++ {
				t := want[c*tile : (c+1)*tile]
				for k := 0; k < steps; k++ {
					for i := k + 1; i < rows; i++ {
						f := t[i*cols+k]
						for j := 0; j < cols; j++ {
							t[i*cols+j] += f * t[k*cols+j]
						}
					}
				}
			}

			elem := func(cta, i, j int) mem.Addr { return wordAddr(aBase, cta*tile+i*cols+j) }
			kernel := &gpu.Kernel{
				Name: "GE", CTAs: ctas, WarpsPerCTA: warps, Regs: 4,
				Init: func(store *mem.Store) { writeArray(store, aBase, a) },
				ProgramFor: func(w *gpu.Warp) gpu.Program {
					var body []*gpu.Instr
					for k := 0; k < steps; k++ {
						k := k
						for i := k + 1; i < rows; i++ {
							i := i
							body = append(body,
								// r1 = factor A[i][k] (thread k's column)
								gpu.Load(1, always(func(t *gpu.Thread) mem.Addr {
									return elem(t.CTA, i, k)
								})),
								// r2 = pivot row element A[k][j]
								gpu.Load(2, always(func(t *gpu.Thread) mem.Addr {
									return elem(t.CTA, k, t.TIDInCTA)
								})),
								// r3 = own element A[i][j]
								gpu.Load(3, always(func(t *gpu.Thread) mem.Addr {
									return elem(t.CTA, i, t.TIDInCTA)
								})),
								gpu.ALU(func(t *gpu.Thread) {
									t.Regs[3] += t.Regs[1] * t.Regs[2]
								}, 1, 2, 3),
								gpu.Store(always(func(t *gpu.Thread) mem.Addr {
									return elem(t.CTA, i, t.TIDInCTA)
								}), func(t *gpu.Thread) uint32 { return t.Regs[3] }, 3),
							)
						}
						// Order step k's stores before step k+1's reads.
						body = append(body, gpu.Fence(), gpu.Barrier())
					}
					return gpu.Seq(body...)
				},
			}

			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("GE tiles", readBack(read, aBase, len(want)), want)
				},
			}
		},
	}
}

// HS is hotspot-style: a double-buffered five-point averaging stencil
// over CTA-private tiles with frozen halos — regular coalesced
// addressing, intra-CTA sharing only.
func HS() *Workload {
	return &Workload{
		Name:        "HS",
		Description: "per-CTA double-buffered averaging stencil (hotspot-style)",
		Build: func(scale int) *Instance {
			th, tw := 4, gpu.WarpWidth // tile geometry: one warp row per grid row
			ctas := ctaScale(scale)
			warps := th // one warp per tile row
			iters := 4 * scale
			tile := th * tw

			lay := newLayout(0xC00000)
			aBase := lay.array(ctas * tile)
			bBase := lay.array(ctas * tile)

			r := newRNG(149)
			a := make([]uint32, ctas*tile)
			for i := range a {
				a[i] = uint32(r.intn(1 << 10))
			}

			// Reference: interior cells average; boundary frozen.
			step := func(src, dst []uint32) {
				copy(dst, src)
				for i := 1; i < th-1; i++ {
					for j := 1; j < tw-1; j++ {
						c := i*tw + j
						dst[c] = (src[c-tw] + src[c+tw] + src[c-1] + src[c+1] + 4*src[c]) / 8
					}
				}
			}
			want := make([]uint32, len(a))
			copy(want, a)
			tmp := make([]uint32, tile)
			for c := 0; c < ctas; c++ {
				cur := want[c*tile : (c+1)*tile]
				for it := 0; it < iters; it++ {
					step(cur, tmp)
					copy(cur, tmp)
				}
			}

			buf := func(base mem.Addr, cta, cell int) mem.Addr {
				return wordAddr(base, cta*tile+cell)
			}
			kernel := &gpu.Kernel{
				Name: "HS", CTAs: ctas, WarpsPerCTA: warps, Regs: 4,
				Init: func(store *mem.Store) { writeArray(store, aBase, a) },
				ProgramFor: func(w *gpu.Warp) gpu.Program {
					cellOf := func(t *gpu.Thread) (int, bool) {
						i, j := t.Warp, t.Lane
						return i*tw + j, i > 0 && i < th-1 && j > 0 && j < tw-1
					}
					mkIter := func(src, dst mem.Addr) []*gpu.Instr {
						off := func(d int) func(t *gpu.Thread) (mem.Addr, bool) {
							return func(t *gpu.Thread) (mem.Addr, bool) {
								c, in := cellOf(t)
								if !in {
									return 0, false
								}
								return buf(src, t.CTA, c+d), true
							}
						}
						return []*gpu.Instr{
							gpu.Load(0, off(0)),
							gpu.ALU(func(t *gpu.Thread) { t.Regs[3] = 4 * t.Regs[0] }, 0),
							gpu.Load(0, off(-tw)),
							gpu.ALU(func(t *gpu.Thread) { t.Regs[3] += t.Regs[0] }, 0, 3),
							gpu.Load(0, off(tw)),
							gpu.ALU(func(t *gpu.Thread) { t.Regs[3] += t.Regs[0] }, 0, 3),
							gpu.Load(0, off(-1)),
							gpu.ALU(func(t *gpu.Thread) { t.Regs[3] += t.Regs[0] }, 0, 3),
							gpu.Load(0, off(1)),
							gpu.ALU(func(t *gpu.Thread) { t.Regs[3] += t.Regs[0] }, 0, 3),
							gpu.Store(func(t *gpu.Thread) (mem.Addr, bool) {
								c, in := cellOf(t)
								if !in {
									return 0, false
								}
								return buf(dst, t.CTA, c), true
							}, func(t *gpu.Thread) uint32 { return t.Regs[3] / 8 }, 3),
							gpu.Fence(),
							gpu.Barrier(),
						}
					}
					// Boundary copy for dst happens once up front: copy
					// frozen halo A -> B so both buffers agree.
					halo := []*gpu.Instr{
						gpu.Load(0, func(t *gpu.Thread) (mem.Addr, bool) {
							c, in := cellOf(t)
							if in {
								return 0, false
							}
							return buf(aBase, t.CTA, c), true
						}),
						gpu.Store(func(t *gpu.Thread) (mem.Addr, bool) {
							c, in := cellOf(t)
							if in {
								return 0, false
							}
							return buf(bBase, t.CTA, c), true
						}, func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0),
						gpu.Fence(),
						gpu.Barrier(),
					}
					var body []*gpu.Instr
					body = append(body, halo...)
					src, dst := aBase, bBase
					for it := 0; it < iters; it++ {
						body = append(body, mkIter(src, dst)...)
						src, dst = dst, src
					}
					// Copy back into A if the final state landed in B.
					if src != aBase {
						body = append(body,
							gpu.Load(0, func(t *gpu.Thread) (mem.Addr, bool) {
								c, _ := cellOf(t)
								return buf(bBase, t.CTA, c), true
							}),
							gpu.Store(func(t *gpu.Thread) (mem.Addr, bool) {
								c, _ := cellOf(t)
								return buf(aBase, t.CTA, c), true
							}, func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0),
						)
					}
					return gpu.Seq(body...)
				},
			}

			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("HS tiles", readBack(read, aBase, len(want)), want)
				},
			}
		},
	}
}

// KM approximates k-means' assignment pass: every thread streams many
// points from memory (working set far beyond L1 — memory intensive)
// and reduces them into one private accumulator.
func KM() *Workload {
	return &Workload{
		Name:        "KM",
		Description: "streaming point reduction (kmeans-style, memory-intensive)",
		Build: func(scale int) *Instance {
			features := 8
			ctas, warps := ctaScale(scale), 2
			total := ctas * warps * gpu.WarpWidth
			pointsPerThread := 12 * scale
			points := total * pointsPerThread

			lay := newLayout(0x1000000)
			ptBase := lay.array(points * features)
			outBase := lay.array(total)

			r := newRNG(151)
			pts := make([]uint32, points*features)
			for i := range pts {
				pts[i] = uint32(r.intn(1 << 10))
			}
			want := make([]uint32, total)
			for t := 0; t < total; t++ {
				var acc uint32
				for p := 0; p < pointsPerThread; p++ {
					idx := (p*total + t) * features
					for f := 0; f < features; f++ {
						acc += pts[idx+f] * uint32(f+1)
					}
				}
				want[t] = acc
			}

			kernel := &gpu.Kernel{
				Name: "KM", CTAs: ctas, WarpsPerCTA: warps, Regs: 3,
				Init: func(store *mem.Store) { writeArray(store, ptBase, pts) },
				ProgramFor: func(w *gpu.Warp) gpu.Program {
					return &gpu.LoopProgram{
						Iters: pointsPerThread * features,
						Body: func(i int) []*gpu.Instr {
							p, f := i/features, i%features
							return []*gpu.Instr{
								gpu.Load(1, always(func(t *gpu.Thread) mem.Addr {
									return wordAddr(ptBase, ((p*total+t.GTID)*features)+f)
								})),
								gpu.ALU(func(t *gpu.Thread) {
									if i == 0 {
										t.Regs[0] = 0
									}
									t.Regs[0] += t.Regs[1] * uint32(f+1)
								}, 0, 1),
							}
						},
					}
				},
			}
			kernel.ProgramFor = withEpilogue(kernel.ProgramFor,
				gpu.Store(always(func(t *gpu.Thread) mem.Addr {
					return wordAddr(outBase, t.GTID)
				}), func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0))

			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("KM sums", readBack(read, outBase, total), want)
				},
			}
		},
	}
}

// BP approximates backprop's forward pass: layer 1 reads a shared
// input vector (broadcast reuse) against private weight rows; layer 2
// reduces the CTA's own hidden tile — intra-CTA sharing only.
func BP() *Workload {
	return &Workload{
		Name:        "BP",
		Description: "two-layer integer forward pass (backprop-style, broadcast + tile reuse)",
		Build: func(scale int) *Instance {
			in := 16 * scale
			ctas, warps := ctaScale(scale), 1
			ctaThreads := warps * gpu.WarpWidth
			total := ctas * ctaThreads

			lay := newLayout(0x1400000)
			inBase := lay.array(in)
			w1Base := lay.array(total * in)
			hidBase := lay.array(total)
			w2Base := lay.array(total * ctaThreads)
			outBase := lay.array(total)

			r := newRNG(163)
			inv := make([]uint32, in)
			for i := range inv {
				inv[i] = uint32(r.intn(1 << 8))
			}
			w1 := make([]uint32, total*in)
			for i := range w1 {
				w1[i] = uint32(r.intn(1 << 8))
			}
			w2 := make([]uint32, total*ctaThreads)
			for i := range w2 {
				w2[i] = uint32(r.intn(1 << 8))
			}
			hidden := make([]uint32, total)
			for j := 0; j < total; j++ {
				var acc uint32
				for i := 0; i < in; i++ {
					acc += inv[i] * w1[j*in+i]
				}
				hidden[j] = acc
			}
			want := make([]uint32, total)
			for k := 0; k < total; k++ {
				cta := k / ctaThreads
				var acc uint32
				for j := 0; j < ctaThreads; j++ {
					acc += hidden[cta*ctaThreads+j] * w2[k*ctaThreads+j]
				}
				want[k] = acc
			}

			kernel := &gpu.Kernel{
				Name: "BP", CTAs: ctas, WarpsPerCTA: warps, Regs: 4,
				Init: func(store *mem.Store) {
					writeArray(store, inBase, inv)
					writeArray(store, w1Base, w1)
					writeArray(store, w2Base, w2)
				},
				ProgramFor: func(w *gpu.Warp) gpu.Program {
					var body []*gpu.Instr
					for i := 0; i < in; i++ {
						i := i
						body = append(body,
							gpu.Load(1, always(func(t *gpu.Thread) mem.Addr { return wordAddr(inBase, i) })),
							gpu.Load(2, always(func(t *gpu.Thread) mem.Addr {
								return wordAddr(w1Base, t.GTID*in+i)
							})),
							gpu.ALU(func(t *gpu.Thread) {
								if i == 0 {
									t.Regs[0] = 0
								}
								t.Regs[0] += t.Regs[1] * t.Regs[2]
							}, 0, 1, 2),
						)
					}
					body = append(body,
						gpu.Store(always(func(t *gpu.Thread) mem.Addr {
							return wordAddr(hidBase, t.GTID)
						}), func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0),
						gpu.Fence(), gpu.Barrier(),
					)
					for j := 0; j < ctaThreads; j++ {
						j := j
						body = append(body,
							gpu.Load(1, always(func(t *gpu.Thread) mem.Addr {
								return wordAddr(hidBase, t.CTA*ctaThreads+j)
							})),
							gpu.Load(2, always(func(t *gpu.Thread) mem.Addr {
								return wordAddr(w2Base, t.GTID*ctaThreads+j)
							})),
							gpu.ALU(func(t *gpu.Thread) {
								if j == 0 {
									t.Regs[3] = 0
								}
								t.Regs[3] += t.Regs[1] * t.Regs[2]
							}, 1, 2, 3),
						)
					}
					body = append(body, gpu.Store(always(func(t *gpu.Thread) mem.Addr {
						return wordAddr(outBase, t.GTID)
					}), func(t *gpu.Thread) uint32 { return t.Regs[3] }, 3))
					return gpu.Seq(body...)
				},
			}

			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("BP out", readBack(read, outBase, total), want)
				},
			}
		},
	}
}

// SGM is a blocked integer GEMM: each warp computes one row of its
// CTA's output tile; A elements broadcast across the warp, B rows are
// read coalesced — compute-bound with heavy read-only reuse.
func SGM() *Workload {
	return &Workload{
		Name:        "SGM",
		Description: "blocked integer matrix multiply (sgemm-style, read-only reuse)",
		Build: func(scale int) *Instance {
			k := 16 * scale
			ctas, warps := ctaScale(scale), 2
			m := ctas * warps // one output row per warp
			n := gpu.WarpWidth

			lay := newLayout(0x1800000)
			aBase := lay.array(m * k)
			bBase := lay.array(k * n)
			cBase := lay.array(m * n)

			r := newRNG(173)
			a := make([]uint32, m*k)
			for i := range a {
				a[i] = uint32(r.intn(1 << 8))
			}
			b := make([]uint32, k*n)
			for i := range b {
				b[i] = uint32(r.intn(1 << 8))
			}
			want := make([]uint32, m*n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					var acc uint32
					for kk := 0; kk < k; kk++ {
						acc += a[i*k+kk] * b[kk*n+j]
					}
					want[i*n+j] = acc
				}
			}

			rowOf := func(t *gpu.Thread) int { return t.CTA*warps + t.Warp }
			kernel := &gpu.Kernel{
				Name: "SGM", CTAs: ctas, WarpsPerCTA: warps, Regs: 3,
				Init: func(store *mem.Store) {
					writeArray(store, aBase, a)
					writeArray(store, bBase, b)
				},
				ProgramFor: func(w *gpu.Warp) gpu.Program {
					return &gpu.LoopProgram{
						Iters: k,
						Body: func(kk int) []*gpu.Instr {
							return []*gpu.Instr{
								gpu.Load(1, always(func(t *gpu.Thread) mem.Addr {
									return wordAddr(aBase, rowOf(t)*k+kk)
								})),
								gpu.Load(2, always(func(t *gpu.Thread) mem.Addr {
									return wordAddr(bBase, kk*n+t.Lane)
								})),
								gpu.Comp(4),
								gpu.ALU(func(t *gpu.Thread) {
									if kk == 0 {
										t.Regs[0] = 0
									}
									t.Regs[0] += t.Regs[1] * t.Regs[2]
								}, 0, 1, 2),
							}
						},
					}
				},
			}
			kernel.ProgramFor = withEpilogue(kernel.ProgramFor,
				gpu.Store(always(func(t *gpu.Thread) mem.Addr {
					return wordAddr(cBase, rowOf(t)*n+t.Lane)
				}), func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0))

			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("SGM C", readBack(read, cBase, len(want)), want)
				},
			}
		},
	}
}

// withEpilogue appends trailing instructions to every warp's program.
func withEpilogue(inner func(w *gpu.Warp) gpu.Program, tail ...*gpu.Instr) func(w *gpu.Warp) gpu.Program {
	return func(w *gpu.Warp) gpu.Program {
		p := inner(w)
		i := 0
		return gpu.FuncProgram(func(w *gpu.Warp) (*gpu.Instr, bool) {
			if p != nil {
				instr, ready := p.Next(w)
				if !ready {
					return nil, false
				}
				if instr != nil {
					return instr, true
				}
				p = nil
			}
			if i < len(tail) {
				i++
				return tail[i-1], true
			}
			return nil, true
		})
	}
}
