//go:build amd64 && !race

#include "textflag.h"

// Packed-SSE2 bodies of the train step's kernels. Each one computes every
// output with the floating-point operations of the Go loops in
// kernels_generic.go, in the same order: a packed lane holds what the Go
// loop keeps in one variable, products and sums stay separate MULPD and
// ADDPD (never an FMA), and reductions across lanes run in the Go loop's
// order. Slices are loaded with MOVUPD, since legacy-SSE packed ops fault on
// a memory operand that is not 16-byte aligned. X14 holds +0 where a
// kernel compares against zero.

// DOT4 adds the products of the row at R with x at columns j..j+3 (X4 =
// x[j:j+2], X5 = x[j+2:j+4], j in AX) into the accumulators A01 = (s0, s1)
// and A23 = (s2, s3), as dotUnchecked's s0 += a[j]*b[j] … s3 +=
// a[j+3]*b[j+3]. It clobbers T0 and T1.
#define DOT4(R, A01, A23, T0, T1) \
	MOVUPD (R)(AX*8), T0; \
	MULPD  X4, T0; \
	ADDPD  T0, A01; \
	MOVUPD 16(R)(AX*8), T1; \
	MULPD  X5, T1; \
	ADDPD  T1, A23

// HSUM leaves ((s0+s1)+s2)+s3 in A01's low lane; it clobbers A23 and T.
#define HSUM(A01, A23, T) \
	MOVAPD   A01, T; \
	UNPCKHPD T, T; \
	ADDSD    T, A01; \
	ADDSD    A23, A01; \
	UNPCKHPD A23, A23; \
	ADDSD    A23, A01

// AXPY4 adds A*r[j:j+4], with r at R and a broadcast in A, into X4 =
// (dst[j], dst[j+1]) and X5 = (dst[j+2], dst[j+3]), each lane as
// dst[j] + a*r[j]. It clobbers T0 and T1.
#define AXPY4(R, A, T0, T1) \
	MOVUPD (R)(AX*8), T0; \
	MULPD  A, T0; \
	ADDPD  T0, X4; \
	MOVUPD 16(R)(AX*8), T1; \
	MULPD  A, T1; \
	ADDPD  T1, X5

// func matVec(dst, a, x, b []float64)
// dst[i] = dot(a's row i, x), then + b[i] when len(b) > 0. Two rows per
// pass over x: X0/X1 hold row i's accumulators, X2/X3 row i+1's.
TEXT ·matVec(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	MOVQ b_base+72(FP), R8
	MOVQ b_len+80(FP), R9
	MOVQ BX, R10
	ANDQ $-4, R10
	MOVQ BX, R11
	SHLQ $3, R11

pairs:
	CMPQ CX, $2
	JLT  odd
	LEAQ (SI)(R11*1), R12
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ AX, AX

pairquad:
	CMPQ   AX, R10
	JGE    pairsum
	MOVUPD (DX)(AX*8), X4
	MOVUPD 16(DX)(AX*8), X5
	DOT4(SI, X0, X1, X6, X7)
	DOT4(R12, X2, X3, X8, X9)
	ADDQ   $4, AX
	JMP    pairquad

pairsum:
	HSUM(X0, X1, X6)
	HSUM(X2, X3, X7)

pairtail:
	CMPQ  AX, BX
	JGE   pairbias
	MOVSD (DX)(AX*8), X4
	MOVSD (SI)(AX*8), X6
	MULSD X4, X6
	ADDSD X6, X0
	MOVSD (R12)(AX*8), X7
	MULSD X4, X7
	ADDSD X7, X2
	INCQ  AX
	JMP   pairtail

pairbias:
	TESTQ R9, R9
	JEQ   pairstore
	ADDSD (R8), X0
	ADDSD 8(R8), X2
	ADDQ  $16, R8

pairstore:
	MOVSD X0, (DI)
	MOVSD X2, 8(DI)
	ADDQ  $16, DI
	LEAQ  (R12)(R11*1), SI
	SUBQ  $2, CX
	JMP   pairs

odd:
	TESTQ CX, CX
	JEQ   done
	XORPS X0, X0
	XORPS X1, X1
	XORQ  AX, AX

oddquad:
	CMPQ   AX, R10
	JGE    oddsum
	MOVUPD (DX)(AX*8), X4
	MOVUPD 16(DX)(AX*8), X5
	DOT4(SI, X0, X1, X6, X7)
	ADDQ   $4, AX
	JMP    oddquad

oddsum:
	HSUM(X0, X1, X6)

oddtail:
	CMPQ  AX, BX
	JGE   oddbias
	MOVSD (SI)(AX*8), X6
	MULSD (DX)(AX*8), X6
	ADDSD X6, X0
	INCQ  AX
	JMP   oddtail

oddbias:
	TESTQ R9, R9
	JEQ   oddstore
	ADDSD (R8), X0

oddstore:
	MOVSD X0, (DI)

done:
	RET

// func matTVecAcc(dst, a, g []float64)
// dst += aᵀg over a's len(g) rows of len(dst): rows whose g entry is zero
// are skipped, the rest applied in pairs, dst[j] = dst[j] + g0*r0[j] +
// g1*r1[j], and a leftover row alone. R8 points at the row waiting for a
// partner (0 when none), X0 holds its g entry.
TEXT ·matTVecAcc(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), BX
	MOVQ  a_base+24(FP), SI
	MOVQ  g_base+48(FP), DX
	MOVQ  g_len+56(FP), CX
	MOVQ  BX, R10
	ANDQ  $-4, R10
	MOVQ  BX, R11
	SHLQ  $3, R11
	XORPS X14, X14
	XORQ  R8, R8

rows:
	TESTQ   CX, CX
	JEQ     flush
	MOVSD   (DX), X1
	UCOMISD X14, X1
	JPS     nonzero // NaN: UCOMISD sets ZF for unordered operands too
	JEQ     next

nonzero:
	TESTQ  R8, R8
	JNE    pair
	MOVQ   SI, R8
	MOVAPD X1, X0
	JMP    next

pair:
	MOVAPD   X0, X2
	UNPCKLPD X2, X2
	MOVAPD   X1, X3
	UNPCKLPD X3, X3
	XORQ     AX, AX

pairquad:
	CMPQ   AX, R10
	JGE    pairtail
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	AXPY4(R8, X2, X6, X7)
	AXPY4(SI, X3, X8, X9)
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    pairquad

pairtail:
	CMPQ  AX, BX
	JGE   paired
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD (SI)(AX*8), X8
	MULSD X1, X8
	ADDSD X8, X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   pairtail

paired:
	XORQ R8, R8

next:
	ADDQ $8, DX
	ADDQ R11, SI
	DECQ CX
	JMP  rows

flush:
	TESTQ    R8, R8
	JEQ      done
	MOVAPD   X0, X2
	UNPCKLPD X2, X2
	XORQ     AX, AX

flushquad:
	CMPQ   AX, R10
	JGE    flushtail
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	AXPY4(R8, X2, X6, X7)
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    flushquad

flushtail:
	CMPQ  AX, BX
	JGE   done
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   flushtail

done:
	RET

// func outerAcc(dst, g, x []float64)
// dst row i += g[i]*x for every i whose g entry is not zero; dst has
// len(g) rows of len(x).
TEXT ·outerAcc(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  g_base+24(FP), DX
	MOVQ  g_len+32(FP), CX
	MOVQ  x_base+48(FP), SI
	MOVQ  x_len+56(FP), BX
	MOVQ  BX, R10
	ANDQ  $-4, R10
	MOVQ  BX, R11
	SHLQ  $3, R11
	XORPS X14, X14

rows:
	TESTQ   CX, CX
	JEQ     done
	MOVSD   (DX), X0
	UCOMISD X14, X0
	JPS     nonzero // NaN: UCOMISD sets ZF for unordered operands too
	JEQ     next

nonzero:
	MOVAPD   X0, X2
	UNPCKLPD X2, X2
	XORQ     AX, AX

quad:
	CMPQ   AX, R10
	JGE    tail
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	AXPY4(SI, X2, X6, X7)
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    quad

tail:
	CMPQ  AX, BX
	JGE   next
	MOVSD (DI)(AX*8), X4
	MOVSD (SI)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   tail

next:
	ADDQ $8, DX
	ADDQ R11, DI
	DECQ CX
	JMP  rows

done:
	RET

// func axpy(dst []float64, a float64, x []float64)
// dst[i] = dst[i] + a*x[i].
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ     dst_base+0(FP), DI
	MOVQ     dst_len+8(FP), BX
	MOVSD    a+24(FP), X0
	MOVQ     x_base+32(FP), SI
	MOVQ     BX, R10
	ANDQ     $-4, R10
	MOVAPD   X0, X2
	UNPCKLPD X2, X2
	XORQ     AX, AX

quad:
	CMPQ   AX, R10
	JGE    tail
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	AXPY4(SI, X2, X6, X7)
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    quad

tail:
	CMPQ  AX, BX
	JGE   done
	MOVSD (DI)(AX*8), X4
	MOVSD (SI)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   tail

done:
	RET

// func addTo(dst, x []float64)
// dst[i] = dst[i] + x[i].
TEXT ·addTo(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	MOVQ BX, R10
	ANDQ $-4, R10
	XORQ AX, AX

quad:
	CMPQ   AX, R10
	JGE    tail
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MOVUPD (SI)(AX*8), X6
	MOVUPD 16(SI)(AX*8), X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    quad

tail:
	CMPQ  AX, BX
	JGE   done
	MOVSD (DI)(AX*8), X4
	ADDSD (SI)(AX*8), X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   tail

done:
	RET

// func relu(dst, x []float64)
// dst[i] = x[i] when x[i] > 0, else +0. MAXPD returns its second operand
// unless the first is greater, so max(x, +0) maps NaN and −0 to +0.
TEXT ·relu(SB), NOSPLIT, $0-48
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), BX
	MOVQ  x_base+24(FP), SI
	MOVQ  BX, R10
	ANDQ  $-4, R10
	XORPS X14, X14
	XORQ  AX, AX

quad:
	CMPQ   AX, R10
	JGE    tail
	MOVUPD (SI)(AX*8), X4
	MOVUPD 16(SI)(AX*8), X5
	MAXPD  X14, X4
	MAXPD  X14, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    quad

tail:
	CMPQ  AX, BX
	JGE   done
	MOVSD (SI)(AX*8), X4
	MAXSD X14, X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   tail

done:
	RET

// func reluBack(dst, g, pre []float64)
// dst[i] = +0 + (g[i] where pre[i] > 0, else +0): the mask is 0 < pre, an
// ordered compare, so a NaN pre passes no gradient.
TEXT ·reluBack(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), BX
	MOVQ  g_base+24(FP), SI
	MOVQ  pre_base+48(FP), DX
	MOVQ  BX, R10
	ANDQ  $-4, R10
	XORPS X14, X14
	XORQ  AX, AX

quad:
	CMPQ   AX, R10
	JGE    tail
	MOVAPD X14, X4
	MOVUPD (DX)(AX*8), X6
	CMPPD  X6, X4, $1 // X4 = 0 < pre
	MOVAPD X14, X5
	MOVUPD 16(DX)(AX*8), X7
	CMPPD  X7, X5, $1
	MOVUPD (SI)(AX*8), X6
	MOVUPD 16(SI)(AX*8), X7
	ANDPD  X6, X4
	ANDPD  X7, X5
	ADDPD  X14, X4
	ADDPD  X14, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    quad

tail:
	CMPQ   AX, BX
	JGE    done
	MOVAPD X14, X4
	MOVSD  (DX)(AX*8), X6
	CMPPD  X6, X4, $1
	MOVSD  (SI)(AX*8), X6
	ANDPD  X6, X4
	ADDSD  X14, X4
	MOVSD  X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	RET

// func adam(w, g, m, v []float64, beta1, beta2, c1, c2, lr, eps, bc1, bc2 float64)
// Per element, in nn.Adam's order: m = beta1*m + c1*g; v = beta2*v +
// (c2*g)*g; w = w − (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
TEXT ·adam(SB), NOSPLIT, $0-160
	MOVQ     w_base+0(FP), DI
	MOVQ     w_len+8(FP), BX
	MOVQ     g_base+24(FP), SI
	MOVQ     m_base+48(FP), R8
	MOVQ     v_base+72(FP), R9
	MOVSD    beta1+96(FP), X8
	UNPCKLPD X8, X8
	MOVSD    beta2+104(FP), X9
	UNPCKLPD X9, X9
	MOVSD    c1+112(FP), X10
	UNPCKLPD X10, X10
	MOVSD    c2+120(FP), X11
	UNPCKLPD X11, X11
	MOVSD    lr+128(FP), X12
	UNPCKLPD X12, X12
	MOVSD    eps+136(FP), X13
	UNPCKLPD X13, X13
	MOVSD    bc1+144(FP), X14
	UNPCKLPD X14, X14
	MOVSD    bc2+152(FP), X7
	UNPCKLPD X7, X7
	MOVQ     BX, R10
	ANDQ     $-2, R10
	XORQ     AX, AX

pair:
	CMPQ   AX, R10
	JGE    tail
	MOVUPD (SI)(AX*8), X0
	MOVUPD (R8)(AX*8), X1
	MULPD  X8, X1
	MOVAPD X0, X2
	MULPD  X10, X2
	ADDPD  X2, X1
	MOVUPD X1, (R8)(AX*8)
	MOVUPD (R9)(AX*8), X3
	MULPD  X9, X3
	MOVAPD X0, X4
	MULPD  X11, X4
	MULPD  X0, X4
	ADDPD  X4, X3
	MOVUPD X3, (R9)(AX*8)
	DIVPD  X14, X1
	DIVPD  X7, X3
	SQRTPD X3, X3
	ADDPD  X13, X3
	MULPD  X12, X1
	DIVPD  X3, X1
	MOVUPD (DI)(AX*8), X5
	SUBPD  X1, X5
	MOVUPD X5, (DI)(AX*8)
	ADDQ   $2, AX
	JMP    pair

tail:
	CMPQ   AX, BX
	JGE    done
	MOVSD  (SI)(AX*8), X0
	MOVSD  (R8)(AX*8), X1
	MULSD  X8, X1
	MOVAPD X0, X2
	MULSD  X10, X2
	ADDSD  X2, X1
	MOVSD  X1, (R8)(AX*8)
	MOVSD  (R9)(AX*8), X3
	MULSD  X9, X3
	MOVAPD X0, X4
	MULSD  X11, X4
	MULSD  X0, X4
	ADDSD  X4, X3
	MOVSD  X3, (R9)(AX*8)
	DIVSD  X14, X1
	DIVSD  X7, X3
	SQRTSD X3, X3
	ADDSD  X13, X3
	MULSD  X12, X1
	DIVSD  X3, X1
	MOVSD  (DI)(AX*8), X5
	SUBSD  X1, X5
	MOVSD  X5, (DI)(AX*8)

done:
	RET
