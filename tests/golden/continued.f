C     Continuation lines, a ragged label, label-field blanks and '!'
C     inside and outside a string that spans a continuation line.
      PROGRAM CONT
      INTEGER N
      PARAMETER (N=4)
      OPEN(7, FILE='CONT.DAT')
      WRITE(7,10) N, 'A!B
     1C!D' ! trailing comment, 'not a string
 1 0  FORMAT(I4,1X,
     &A5)
30 WRITE(7,40) N,
     +  N
   40 FORMAT(2I6)
      CLOSE(7)                                                          CONT0140
      END
